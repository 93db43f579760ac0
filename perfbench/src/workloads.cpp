#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <numeric>

namespace perfbench {
namespace {

/// The generator's own stream (splitmix64), independent of common/random.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); the modulo bias is below 2^-50 for these sizes.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Scenario seeds a design point may be run with, each paired with the
/// useful work W its run computes.  Small and fixed so the reference table
/// can enumerate every (design point, seed) pair.  Spreading W by ±15%
/// around the paper's 500 h spreads each design point's cost the same way,
/// which fills the gaps between the cost clusters of different design
/// points, so no latency percentile sits in a gap where timing noise could
/// move it from one cluster to the next.
struct ScenarioSeed {
  std::uint64_t seed;
  const char* compute_hours;
};
constexpr std::array<ScenarioSeed, 4> kScenarioSeeds = {
    {{11, "425"}, {23, "475"}, {37, "525"}, {41, "575"}}};

struct Label {
  const char* label;
  const char* spec;
};

/// The paper's three design points, by system MTBF in hours.
constexpr std::array<Label, 3> kScales = {{
    {"peta10k", "22"}, {"peta20k", "11"}, {"exa100k", "2.2"}}};

/// Policies the batch kernel accepts (sim::batch_eligible, constant
/// storage), then the ones that always take the scalar engine.
constexpr std::array<Label, 3> kBatchPolicies = {{
    {"static-oci", "static-oci"},
    {"periodic", "periodic:1"},
    {"ilazy", "ilazy:0.6"}}};
constexpr std::array<Label, 4> kScalarPolicies = {{
    {"skip", "skip2:static-oci"},
    {"skip-ilazy", "skip1:ilazy:0.6"},
    {"linear", "linear:0.1"},
    {"dynamic-oci", "dynamic-oci"}}};

constexpr std::size_t kFlatBatchReplicas = 200;
constexpr std::size_t kFlatReplicas = 50;
constexpr std::size_t kBoundedReplicas = 12;
constexpr std::size_t kTieredReplicas = 60;
constexpr std::size_t kCampaignReplicas = 40;
constexpr std::size_t kSweepReplicas = 40;

/// One design point before a scenario seed is attached.
struct Design {
  std::string id;
  std::string body;  ///< every line but name/compute/replicas/seed
  std::size_t replicas;
  std::size_t copies = 1;  ///< scenario seeds it runs under per cycle
};

void with_seed(const Design& design, const ScenarioSeed& seed,
               RequestText* out) {
  out->id = design.id + ".s" + std::to_string(seed.seed);
  out->text = "name = " + out->id + "\n" + design.body + "compute = " +
              seed.compute_hours + "\nreplicas = " +
              std::to_string(design.replicas) + "\nseed = " +
              std::to_string(seed.seed) + "\n";
}

std::string flat_body(const std::string& distribution,
                      const std::string& storage, const std::string& policy,
                      const char* mtbf, const char* shape) {
  return "distribution = " + distribution + "\nstorage = " + storage +
         "\npolicy = " + policy + "\noci = daly\nmtbf-hint = " +
         mtbf + "\nshape-hint = " + shape + "\n";
}

// --- paper-flat ------------------------------------------------------------

/// Batch-eligible points (constant storage) run under every scenario seed
/// with four times the replicas, the scalar ones under one seed each, so
/// 70% of requests and about four fifths of the simulation time take the
/// batch kernel: LAZYCKPT_BATCH=0 must move this workload's throughput by
/// more than its bound.  The Spider trace runs at the petascale-20K point
/// only, as in the catalog's spider-trace scenario.
std::vector<Design> paper_flat_designs() {
  std::vector<Design> designs;
  for (const Label& scale : kScales) {
    for (const bool weibull : {false, true}) {
      const std::string dist =
          weibull ? std::string("weibull:mtbf=") + scale.spec + ",k=0.6"
                  : std::string("exponential:mtbf=") + scale.spec;
      const char* dist_label = weibull ? "wbl" : "exp";
      const char* shape = weibull ? "0.6" : "1";
      auto add = [&](const Label& policy, const char* storage_label,
                     const char* storage, bool batch) {
        designs.push_back({std::string("pf.") + policy.label + "." +
                               dist_label + "." + storage_label + "." +
                               scale.label,
                           flat_body(dist, storage, policy.spec, scale.spec,
                                     shape),
                           batch ? kFlatBatchReplicas : kFlatReplicas,
                           batch ? kScenarioSeeds.size() : 1});
      };
      for (const Label& policy : kBatchPolicies) {
        add(policy, "const", "constant:beta=0.5", true);
      }
      for (const Label& policy : kScalarPolicies) {
        add(policy, "const", "constant:beta=0.5", false);
      }
      if (!weibull || std::string_view(scale.label) != "peta20k") continue;
      for (const Label& policy : kBatchPolicies) {
        add(policy, "spider", "spider:size_gb=150,span=1000", false);
      }
      for (const Label& policy : kScalarPolicies) {
        add(policy, "spider", "spider:size_gb=150,span=1000", false);
      }
    }
  }
  return designs;
}

// --- bounded-lazy ----------------------------------------------------------

/// The exascale points are the slowest third and hold the p90 tail; they
/// run under every scenario seed, so the tail holds the same requests
/// whatever the workload seed draws.
std::vector<Design> bounded_designs() {
  std::vector<Design> designs;
  constexpr std::array<const char*, 5> kShapes = {"0.5", "0.6", "0.7", "0.8",
                                                  "0.9"};
  constexpr std::array<const char*, 3> kBetas = {"0.25", "0.5", "1"};
  for (const Label& scale : kScales) {
    for (const char* k : kShapes) {
      for (const char* beta : kBetas) {
        designs.push_back(
            {std::string("bl.k") + k + ".b" + beta + "." + scale.label,
             flat_body(std::string("weibull:mtbf=") + scale.spec + ",k=" + k,
                       std::string("constant:beta=") + beta,
                       std::string("bounded-ilazy:") + k, scale.spec, k),
             kBoundedReplicas,
             std::string_view(scale.label) == "exa100k" ? kScenarioSeeds.size()
                                                        : 1});
      }
    }
  }
  return designs;
}

// --- tiered-campaign -------------------------------------------------------

/// Request costs form two clusters, petascale (0.5–2 ms) and exascale
/// (3–10 ms).  Exascale points run under more scenario seeds, so the
/// median falls inside the exascale cluster rather than in the gap, and
/// the 3-tier exascale iLazy requests form the p90 tail.
std::vector<Design> tiered_designs() {
  constexpr std::array<Label, 3> kStacks = {{
      {"t1", "tier.1 = pfs:beta=0.5\n"},
      {"t2",
       "tier.1 = bb:beta=0.05,survivable=0.8\n"
       "tier.2 = pfs:beta=0.5,every=4\n"},
      {"t3",
       "tier.1 = mem:beta=0.005,survivable=0.5\n"
       "tier.2 = bb:beta=0.05,survivable=0.8,every=4\n"
       "tier.3 = pfs:beta=0.5,every=2\n"}}};
  constexpr std::array<Label, 2> kPolicies = {{{"ilazy", "ilazy:0.6"},
                                               {"static-oci", "static-oci"}}};
  constexpr std::array<const char*, 2> kAllocations = {"24", "168"};
  std::vector<Design> designs;
  for (std::size_t s = 1; s < kScales.size(); ++s) {
    const Label& scale = kScales[s];
    const bool exascale = s == 2;
    const std::string dist =
        std::string("weibull:mtbf=") + scale.spec + ",k=0.6";
    for (const Label& policy : kPolicies) {
      const std::string tail = std::string("policy = ") + policy.spec +
                               "\noci = daly\nmtbf-hint = " +
                               scale.spec + "\nshape-hint = 0.6\n";
      for (const Label& stack : kStacks) {
        designs.push_back({std::string("tc.") + stack.label + "." +
                               policy.label + "." + scale.label,
                           "distribution = " + dist + "\n" + stack.spec + tail,
                           kTieredReplicas, exascale ? 3U : 1U});
      }
      for (const char* allocation : kAllocations) {
        designs.push_back(
            {std::string("tc.campaign") + allocation + "." + policy.label +
                 "." + scale.label,
             "distribution = " + dist + "\nstorage = constant:beta=0.5\n" +
                 tail + "allocation = " + allocation + "\ngap = 12\n",
             kCampaignReplicas, exascale ? 2U : 1U});
      }
    }
  }
  return designs;
}

// --- sweep-replay ----------------------------------------------------------

struct Axis {
  const char* key;
  std::vector<const char*> pool;
  std::size_t pick;  ///< values a seed draws from the pool
};

/// 3 × 2 × 6 × 5 × 1 = 180 points per seed, out of a 756-point universe.
/// W = 8000 h makes a miss's simulation long next to its file write (about
/// 3.8 ms against 0.4-0.7 ms on the Baseline host in README.md), so the
/// latency of misses follows the simulator rather than the disk, whose
/// speed on a shared host swings 3x within a minute; an entry's size
/// depends on the replica count only, so hits stay as cheap.
/// The axes that set a point's cost (distribution, storage, policy) are
/// taken whole; a seed draws only the scenario seed and five OCIs from a
/// grid narrow enough that the points of a stratum cost about the same.
std::vector<Axis> sweep_axes() {
  return {
      {"distribution",
       {"weibull:mtbf=11,k=0.6", "weibull:mtbf=22,k=0.7",
        "exponential:mtbf=11"},
       3},
      {"storage", {"constant:beta=0.25", "constant:beta=0.5"}, 2},
      {"policy",
       {"static-oci", "periodic:2", "periodic:4", "ilazy:0.6",
        "skip2:static-oci", "dynamic-oci"},
       6},
      {"oci", {"2", "2.1", "2.2", "2.3", "2.4", "2.5", "2.6"}, 5},
      {"seed", {"5", "7", "13"}, 1},
  };
}

std::string sweep_text(const std::vector<Axis>& axes,
                       const std::vector<std::vector<const char*>>& values) {
  std::string text;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    text += std::string(axes[a].key) + " = [";
    for (std::size_t v = 0; v < values[a].size(); ++v) {
      text += (v == 0 ? " " : " | ");
      text += values[a][v];
    }
    text += " ]\n";
  }
  text += "compute = 8000\nshape-hint = 0.6\nreplicas = " +
          std::to_string(kSweepReplicas) + "\n";
  return text;
}

void finish(GeneratedInput* input) {
  std::string all = input->sweep_text;
  for (const RequestText& request : input->requests) all += request.text;
  input->digest = fnv1a_hex(all);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "paper-flat") return Workload::kPaperFlat;
  if (name == "bounded-lazy") return Workload::kBoundedLazy;
  if (name == "tiered-campaign") return Workload::kTieredCampaign;
  if (name == "sweep-replay") return Workload::kSweepReplay;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperFlat: return "paper-flat";
    case Workload::kBoundedLazy: return "bounded-lazy";
    case Workload::kTieredCampaign: return "tiered-campaign";
    case Workload::kSweepReplay: return "sweep-replay";
  }
  return "?";
}

GeneratedInput generate(Workload workload, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x6C617A79636B7074ULL);  // "lazyckpt"
  GeneratedInput input;
  auto add = [&](const std::vector<Design>& designs) {
    for (const Design& design : designs) {
      std::vector<ScenarioSeed> seeds(kScenarioSeeds.begin(),
                                      kScenarioSeeds.end());
      rng.shuffle(seeds);
      for (std::size_t i = 0; i < design.copies; ++i) {
        RequestText request;
        with_seed(design, seeds[i], &request);
        input.requests.push_back(std::move(request));
      }
    }
  };

  switch (workload) {
    case Workload::kPaperFlat:
      add(paper_flat_designs());
      break;
    case Workload::kBoundedLazy:
      add(bounded_designs());
      break;
    case Workload::kTieredCampaign:
      add(tiered_designs());
      break;
    case Workload::kSweepReplay: {
      const std::vector<Axis> axes = sweep_axes();
      std::vector<std::vector<const char*>> values;
      for (const Axis& axis : axes) {
        std::vector<std::size_t> index(axis.pool.size());
        std::iota(index.begin(), index.end(), std::size_t{0});
        rng.shuffle(index);
        index.resize(axis.pick);
        std::sort(index.begin(), index.end());
        std::vector<const char*> chosen;
        for (const std::size_t i : index) chosen.push_back(axis.pool[i]);
        values.push_back(std::move(chosen));
      }
      input.sweep_text = sweep_text(axes, values);
      break;
    }
  }
  rng.shuffle(input.requests);
  finish(&input);
  return input;
}

GeneratedInput universe(Workload workload) {
  GeneratedInput input;
  std::vector<Design> designs;
  switch (workload) {
    case Workload::kPaperFlat: designs = paper_flat_designs(); break;
    case Workload::kBoundedLazy: designs = bounded_designs(); break;
    case Workload::kTieredCampaign: designs = tiered_designs(); break;
    case Workload::kSweepReplay: {
      const std::vector<Axis> axes = sweep_axes();
      std::vector<std::vector<const char*>> values;
      for (const Axis& axis : axes) values.push_back(axis.pool);
      input.sweep_text = sweep_text(axes, values);
      break;
    }
  }
  for (const Design& design : designs) {
    for (const ScenarioSeed& seed : kScenarioSeeds) {
      RequestText request;
      with_seed(design, seed, &request);
      input.requests.push_back(std::move(request));
    }
  }
  finish(&input);
  return input;
}

std::string sweep_point_id(const SweepFields& fields) {
  char oci[32];
  std::snprintf(oci, sizeof oci, "%g", fields.oci_hours);
  return "sw|" + fields.distribution + "|" + fields.storage + "|" +
         fields.policy + "|oci=" + oci + "|seed=" + std::to_string(fields.seed);
}

SweepPlan plan_sweep(std::uint64_t seed,
                     const std::vector<std::string>& strata) {
  SplitMix rng(seed ^ 0x7377656570ULL);  // "sweep"
  const std::size_t points = strata.size();
  SweepPlan plan;
  plan.order.resize(points);
  std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
  rng.shuffle(plan.order);
  plan.prefilled.assign(points, true);
  std::map<std::string, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < points; ++i) members[strata[i]].push_back(i);
  for (auto& [stratum, indices] : members) {
    rng.shuffle(indices);
    for (std::size_t i = 0; i < indices.size() / 5; ++i) {
      plan.prefilled[indices[i]] = false;
    }
  }
  return plan;
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

}  // namespace perfbench
