/// \file client.cpp
/// \brief The benchmark's generator and client: one process that turns a
/// workload seed into scenario text and sends the requests back to back
/// (closed loop, one client) through spec::ScenarioRunner::run, the entry
/// point lazyckpt-run calls.  perfbench/run.py builds and drives it; see
/// README.md for the protocol and the metrics.
///
///   perfbench_client --workload W --seed N --phase setup|run
///                    [--seconds T] [--trace 0|1] [--reference FILE]
///                    [--work-dir DIR] [--trace-out FILE]
///   perfbench_client --workload W --seed N --emit
///   perfbench_client --workload W --seed N --digest K [--work-dir DIR]
///   perfbench_client --workload W --make-reference
///
/// `--phase` prints `READY` once set-up is done (run.py times process
/// start to that line), then `HOST_SCALE x` (the host's speed right after,
/// see HostSpeed) and, in `run`, one `RESULT {json}` line at the end.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/key.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "calibration.hpp"
#include "core/model/oci.hpp"
#include "core/policy/bounded_ilazy.hpp"
#include "core/policy/factory.hpp"
#include "io/factory.hpp"
#include "io/hierarchy.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "sim/batch.hpp"
#include "sim/campaign.hpp"
#include "sim/hierarchy.hpp"
#include "sim/metrics.hpp"
#include "spec/runner.hpp"
#include "spec/scenario.hpp"
#include "spec/sweep.hpp"
#include "stats/factory.hpp"
#include "workloads.hpp"

namespace {

namespace lz = lazyckpt;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// --- options ---------------------------------------------------------------

struct Options {
  pb::Workload workload = pb::Workload::kPaperFlat;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string phase;  ///< "setup" or "run"
  std::string reference_path;
  std::string work_dir = ".bench_work/client";
  std::string trace_out;
  bool emit = false;
  bool make_reference = false;
  std::size_t digest_requests = 0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      const auto workload = pb::parse_workload(name);
      if (!workload) throw std::invalid_argument("unknown workload " + name);
      options.workload = *workload;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--phase") {
      options.phase = value();
    } else if (arg == "--reference") {
      options.reference_path = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--emit") {
      options.emit = true;
    } else if (arg == "--make-reference") {
      options.make_reference = true;
    } else if (arg == "--digest") {
      options.digest_requests = std::stoull(value());
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!options.phase.empty() && options.phase != "setup" &&
      options.phase != "run") {
    throw std::invalid_argument("--phase is setup or run");
  }
  if (options.phase == "run" && options.reference_path.empty()) {
    throw std::invalid_argument("--phase run needs --reference");
  }
  return options;
}

// --- the cache decorator ---------------------------------------------------

/// Forwards to a ResultStore and times each call the runner makes into
/// the cache layer, inside the request.
class TimedCache final : public lz::spec::ResultCache {
 public:
  explicit TimedCache(lz::cache::ResultStore& store) : store_(store) {}

  std::optional<lz::spec::ScenarioResult> fetch(
      const lz::spec::Scenario& scenario) override {
    const lz::obs::TraceSpan span("bench.cache.fetch");
    const auto start = Clock::now();
    auto result = store_.fetch(scenario);
    fetch_ns += ns_since(start);
    ++fetch_calls;
    hit = result.has_value();
    return result;
  }

  void store(const lz::spec::ScenarioResult& result) override {
    const lz::obs::TraceSpan span("bench.cache.store");
    const auto start = Clock::now();
    store_.store(result);
    store_ns += ns_since(start);
    ++store_calls;
  }

  /// Clear the per-request fields.
  void begin_request() {
    fetch_ns = 0.0;
    store_ns = 0.0;
    hit = false;
  }

  double fetch_ns = 0.0;
  double store_ns = 0.0;
  bool hit = false;
  std::uint64_t fetch_calls = 0;
  std::uint64_t store_calls = 0;

 private:
  lz::cache::ResultStore& store_;
};

// --- requests --------------------------------------------------------------

struct Request {
  std::string id;
  std::string text;  ///< scenario text; empty for sweep points
  lz::spec::Scenario scenario;
  pb::SimClass sim_class = pb::SimClass::kFlatScalar;
  // sweep-replay only
  std::string fresh_bytes;  ///< serialize_result of the set-up computation
  std::string entry_path;   ///< where the store keeps this point
  std::string stratum;      ///< the point's id with the OCI axis left out
  bool prefilled = false;
};

pb::SimClass classify(const lz::spec::Scenario& scenario) {
  if (scenario.is_tiered()) return pb::SimClass::kHierarchy;
  if (scenario.is_campaign()) return pb::SimClass::kCampaign;
  const auto policy = lz::core::make_policy(scenario.policy);
  if (dynamic_cast<const lz::core::BoundedILazyPolicy*>(policy.get()) !=
      nullptr) {
    return pb::SimClass::kBounded;
  }
  const auto storage = lz::io::make_storage(scenario.storage);
  return lz::sim::batch_size_from_env() > 0 &&
                 lz::sim::batch_eligible(*policy, *storage)
             ? pb::SimClass::kFlatBatch
             : pb::SimClass::kFlatScalar;
}

/// What one request returned and what the oracle made of it.
struct Outcome {
  double ns = 0.0;
  bool hit = false;
  std::string error;  ///< empty when the request passed every check
  std::optional<lz::spec::ScenarioResult> result;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// This process's peak resident set.  VmHWM belongs to the address space
/// exec created; getrusage's ru_maxrss would also carry the peak of the
/// process that forked us, so without VmHWM the run ends with no result.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// Requests in the smallest window of whole cycles a run's p50 and p90
/// are taken over: a p90 of 100 samples has 10 beyond it.
constexpr std::size_t kWindowRequests = 100;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

// --- the bench -------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options options) : options_(std::move(options)) {}

  /// Generate, parse, warm the factory registries, and (sweep-replay)
  /// compute every point fresh and prefill four of five on disk.
  void setup();

  /// Time-boxed closed loop with tracing off; prints RESULT.
  void measure();

  /// Untraced then traced pass over the same requests; prints RESULT.
  void traced();

  /// Serialized results of the first `count` requests, digested.
  [[nodiscard]] std::string digest(std::size_t count);

  bool inputs_deterministic = true;
  /// The host's speed; started once set-up is done.
  pb::HostSpeed speed;

 private:
  bool sweep() const { return options_.workload == pb::Workload::kSweepReplay; }
  std::string cache_dir() const { return options_.work_dir + "/cache"; }

  Outcome run_request(const Request& request, TimedCache* cache) const;
  std::string check(const Request& request, const Outcome& outcome) const;
  /// One pass over the cycle; stops early past `hard_deadline`.  `each`
  /// sees every request with its outcome and (sweep-replay) the cache.
  template <typename Each>
  void run_cycle(Clock::time_point hard_deadline, Each&& each);
  void side_calls(const Request& request, const Outcome& outcome,
                  pb::TracedRequest* traced, pb::Ledger* ledger) const;
  void note_error(const std::string& error);
  void print_result(const std::vector<pb::Metric>& metrics,
                    const std::string& extra) const;

  Options options_;
  pb::GeneratedInput input_;
  std::vector<Request> cycle_;
  std::optional<pb::Reference> reference_;
  std::optional<lz::cache::ResultStore> store_;
  std::optional<TimedCache> timed_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

void Bench::setup() {
  input_ = pb::generate(options_.workload, options_.seed);
  inputs_deterministic =
      pb::generate(options_.workload, options_.seed).digest == input_.digest;
  if (!options_.reference_path.empty()) {
    reference_ = pb::Reference::load(options_.reference_path);
  }

  if (!sweep()) {
    for (const pb::RequestText& text : input_.requests) {
      Request request;
      request.id = text.id;
      request.text = text.text;
      request.scenario = lz::spec::parse_scenario(text.text);
      request.sim_class = classify(request.scenario);
      cycle_.push_back(std::move(request));
    }
    return;
  }

  std::vector<Request> points;
  for (lz::spec::SweepPoint& point :
       lz::spec::expand_sweep(input_.sweep_text)) {
    Request request;
    const lz::spec::Scenario& s = point.scenario;
    request.id = pb::sweep_point_id(
        {s.distribution, s.storage, s.policy, s.oci_hours, s.seed});
    request.stratum = pb::sweep_point_id(
        {s.distribution, s.storage, s.policy, 0.0, s.seed});
    request.sim_class = classify(s);
    request.scenario = std::move(point.scenario);
    points.push_back(std::move(request));
  }
  std::sort(points.begin(), points.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
  std::vector<std::string> strata;
  for (const Request& point : points) strata.push_back(point.stratum);
  const pb::SweepPlan plan = pb::plan_sweep(options_.seed, strata);

  // Every pass starts from this on-disk state.
  std::filesystem::remove_all(cache_dir());
  std::filesystem::create_directories(cache_dir());
  lz::cache::ResultStore prefill(lz::cache::StoreOptions{cache_dir(), 256});
  const lz::spec::ScenarioRunner fresh;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Request& point = points[i];
    const lz::spec::ScenarioResult result = fresh.run(point.scenario);
    point.fresh_bytes = lz::cache::serialize_result(result);
    point.entry_path =
        prefill.entry_path(lz::cache::derive_key(result.scenario));
    point.prefilled = plan.prefilled[i];
    if (point.prefilled) prefill.store(result);
  }
  for (const std::size_t i : plan.order) cycle_.push_back(points[i]);
}

Outcome Bench::run_request(const Request& request, TimedCache* cache) const {
  lz::spec::RunnerOptions runner_options;
  runner_options.cache = cache;
  const lz::spec::ScenarioRunner runner(runner_options);
  Outcome outcome;
  if (cache != nullptr) cache->begin_request();
  const auto start = Clock::now();
  try {
    const lz::obs::TraceSpan span("bench.request");
    outcome.result = runner.run(request.scenario);
  } catch (const std::exception& e) {
    outcome.error = request.id + ": threw: " + e.what();
  }
  outcome.ns = ns_since(start);
  outcome.hit = cache != nullptr && cache->hit;
  if (outcome.error.empty()) outcome.error = check(request, outcome);
  return outcome;
}

std::string Bench::check(const Request& request, const Outcome& outcome) const {
  const lz::spec::ScenarioResult& result = *outcome.result;
  if (std::string error = pb::check_invariants(result); !error.empty()) {
    return request.id + ": " + error;
  }
  if (reference_) {
    if (std::string error = reference_->check(request.id, result);
        !error.empty()) {
      return error;
    }
  }
  if (sweep() && lz::cache::serialize_result(result) != request.fresh_bytes) {
    return request.id + (outcome.hit ? ": cache hit" : ": recomputation") +
           " is not byte-identical to the fresh result";
  }
  return {};
}

template <typename Each>
void Bench::run_cycle(Clock::time_point hard_deadline, Each&& each) {
  TimedCache* cache = nullptr;
  if (sweep()) {
    timed_.reset();
    store_.reset();
    store_.emplace(lz::cache::StoreOptions{cache_dir(), 256});
    timed_.emplace(*store_);
    cache = &*timed_;
  }
  for (const Request& request : cycle_) {
    if (Clock::now() > hard_deadline) break;
    Outcome outcome = run_request(request, cache);
    ++attempted_;
    if (!outcome.error.empty()) {
      ++failed_;
      note_error(outcome.error);
    }
    each(request, outcome);
  }
  if (sweep()) {
    // Restore the prefilled state: drop what this pass's misses wrote.
    for (const Request& request : cycle_) {
      if (!request.prefilled) std::filesystem::remove(request.entry_path);
    }
  }
}

void Bench::note_error(const std::string& error) {
  if (errors_.size() < 5) {
    errors_.push_back(error);
    std::cerr << "perfbench: request failed: " << error << "\n";
  }
}

void Bench::measure() {
  const auto start = Clock::now();
  const auto hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(2.0 * options_.seconds + 30.0));
  // Every timing is kept twice: as measured, and scaled to the reference
  // host's speed by the probe taken just before (see HostSpeed).  Other
  // tenants of a shared host change its speed for seconds to minutes at a
  // time; the scaled timings follow the program, not those phases.
  //
  // Each whole cycle gives its trials per second, and each window of whole
  // cycles with at least kWindowRequests requests its p50 and p90, so at
  // least a tenth of a window's samples lie beyond its p90.  The metrics
  // are medians over cycles and windows.  Every cycle sends the same
  // requests, so this drops single slowed cycles, and the bench's memory
  // does not grow with the number of requests, which would otherwise show
  // in peak_rss_mb.
  struct Series {
    std::vector<double> cycle_ms;   ///< the current cycle's latencies
    std::vector<double> window_ms;  ///< the current window's
    std::vector<double> rate, p50, p90;
    std::size_t beyond_p90 = 0;

    void add(double ns) { cycle_ms.push_back(ns / 1e6); }
    void close_cycle(double trials, bool whole) {
      if (whole) {
        double ms = 0.0;
        for (const double latency : cycle_ms) ms += latency;
        rate.push_back(trials / (ms / 1e3));
        window_ms.insert(window_ms.end(), cycle_ms.begin(), cycle_ms.end());
        if (window_ms.size() >= kWindowRequests) {
          const auto n = static_cast<double>(window_ms.size());
          p50.push_back(percentile(window_ms, 0.5));
          p90.push_back(percentile(window_ms, 0.9));
          beyond_p90 += window_ms.size() - static_cast<std::size_t>(0.9 * n);
          window_ms.clear();
        }
      }
      cycle_ms.clear();
    }
  };
  Series scaled;
  Series raw;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  do {
    std::uint64_t cycle_trials = 0;
    std::size_t sent = 0;
    run_cycle(hard_deadline, [&](const Request& request,
                                 const Outcome& outcome) {
      raw.add(outcome.ns);
      scaled.add(outcome.ns * speed.scale());
      cycle_trials += request.scenario.replicas;
      hits += outcome.hit ? 1 : 0;
      ++sent;
      speed.tick();
    });
    requests += sent;
    raw.close_cycle(static_cast<double>(cycle_trials), sent == cycle_.size());
    scaled.close_cycle(static_cast<double>(cycle_trials),
                       sent == cycle_.size());
  } while (ns_since(start) < options_.seconds * 1e9 &&
           Clock::now() < hard_deadline);
  if (scaled.p50.empty()) {
    throw std::runtime_error("fewer than 100 requests in whole cycles; "
                             "raise --seconds");
  }

  const std::vector<pb::Metric> metrics = {
      {"trials_per_s", percentile(scaled.rate, 0.5), "1/s"},
      {"request_ms.p50", percentile(scaled.p50, 0.5), "ms"},
      {"request_ms.p90", percentile(scaled.p90, 0.5), "ms"},
      {"trials_per_s.raw", percentile(raw.rate, 0.5), "1/s"},
      {"request_ms.p50.raw", percentile(raw.p50, 0.5), "ms"},
      {"request_ms.p90.raw", percentile(raw.p90, 0.5), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"error_rate",
       requests > 0 ? static_cast<double>(failed_) /
                          static_cast<double>(requests)
                    : 1.0,
       "fraction"},
  };
  print_result(metrics,
               ", \"requests\": " + std::to_string(requests) +
                   ", \"beyond_p90\": " + std::to_string(scaled.beyond_p90) +
                   ", \"cycles\": " + std::to_string(scaled.rate.size()) +
                   ", \"cache_hits\": " + std::to_string(hits) +
                   ", \"elapsed_s\": " + number(ns_since(start) / 1e9));
}

void Bench::side_calls(const Request& request, const Outcome& outcome,
                       pb::TracedRequest* traced, pb::Ledger* ledger) const {
  const lz::spec::Scenario& s = request.scenario;
  if (!request.text.empty()) {
    const lz::obs::TraceSpan span("bench.spec.parse");
    const auto start = Clock::now();
    (void)lz::spec::parse_scenario(request.text);
    ledger->parse_ns += ns_since(start);
    ++ledger->parse_calls;
  }
  {
    const lz::obs::TraceSpan span("bench.spec.validate");
    const auto start = Clock::now();
    s.validate();
    traced->validate_ns = ns_since(start);
  }
  if (outcome.hit) {
    const std::string bytes = read_file(request.entry_path);
    const lz::obs::TraceSpan span("bench.cache.deserialize");
    const auto start = Clock::now();
    const auto parsed = lz::cache::deserialize_result(bytes);
    ledger->deserialize_ns += ns_since(start);
    ledger->deserialize_bytes += static_cast<double>(bytes.size());
    if (!parsed.result) {
      throw std::runtime_error("deserialize: " + parsed.error);
    }
    return;
  }

  // Factories plus OCI derivation, as the runner builds them.
  lz::stats::DistributionPtr distribution;
  lz::core::PolicyPtr policy;
  lz::io::StorageModelPtr storage;
  std::optional<lz::io::StorageHierarchy> hierarchy;
  {
    const lz::obs::TraceSpan span("bench.spec.build");
    const auto start = Clock::now();
    distribution = lz::stats::make_distribution(s.distribution);
    policy = lz::core::make_policy(s.policy);
    const double mtbf =
        s.mtbf_hint_hours > 0.0 ? s.mtbf_hint_hours : distribution->mean();
    double oci = s.oci_hours;
    if (s.is_tiered()) {
      hierarchy.emplace(lz::io::make_hierarchy(s.tier_spec()));
      if (oci <= 0.0) {
        oci = lz::core::tiered_daly_oci(hierarchy->betas_at(0.0),
                                        hierarchy->cumulative_periods(), mtbf);
      }
    } else {
      storage = lz::io::make_storage(s.storage);
      if (oci <= 0.0) {
        oci = lz::core::daly_oci(storage->checkpoint_time(0.0), mtbf);
      }
    }
    traced->build_ns = ns_since(start);
    if (!(oci > 0.0)) throw std::runtime_error("derived OCI is not positive");
  }

  const lz::spec::ScenarioResult& result = *outcome.result;
  if (s.is_tiered() || s.is_campaign()) {
    // The raw per-replica inputs of aggregate_hierarchy/aggregate_campaigns
    // never leave the runner: recompute them with tracing paused.
    lz::obs::set_enabled(false);
    std::vector<lz::sim::HierarchyRunMetrics> raw_tiers;
    std::vector<lz::sim::CampaignResult> campaigns;
    if (s.is_tiered()) {
      raw_tiers = lz::sim::run_hierarchy_replicas_raw(
          lz::spec::hierarchy_config(s), *hierarchy, *policy, *distribution,
          s.replicas, s.seed);
    } else {
      campaigns = lz::sim::run_campaign_replicas(lz::spec::campaign_config(s),
                                                 *policy, *distribution,
                                                 *storage, s.replicas, s.seed);
    }
    lz::obs::set_enabled(true);
    const lz::obs::TraceSpan span("bench.sim.aggregate");
    const auto start = Clock::now();
    if (s.is_tiered()) {
      (void)lz::sim::aggregate_hierarchy(*hierarchy, raw_tiers);
      (void)lz::sim::aggregate(result.runs);
    } else {
      (void)lz::sim::aggregate_campaigns(campaigns);
      std::vector<lz::sim::RunMetrics> all_runs;
      for (const auto& campaign : campaigns) {
        all_runs.insert(all_runs.end(), campaign.runs.begin(),
                        campaign.runs.end());
      }
      (void)lz::sim::aggregate(all_runs);
    }
    traced->aggregate_ns = ns_since(start);
  } else {
    const lz::obs::TraceSpan span("bench.sim.aggregate");
    const auto start = Clock::now();
    (void)lz::sim::aggregate(result.runs);
    traced->aggregate_ns = ns_since(start);
  }

  if (sweep()) {
    const lz::obs::TraceSpan span("bench.cache.serialize");
    const auto start = Clock::now();
    const std::string bytes = lz::cache::serialize_result(result);
    ledger->serialize_ns += ns_since(start);
    ledger->serialize_bytes += static_cast<double>(bytes.size());
  }
}

void Bench::traced() {
  // Untraced and traced passes over the same whole cycles, alternating so
  // drift on a shared host hits both sides alike.
  const auto start = Clock::now();
  const auto hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(2.0 * options_.seconds + 30.0));
  pb::Ledger ledger;
  std::vector<lz::obs::TraceEvent> kept;  // only with --trace-out
  lz::obs::reset_trace_buffers();
  lz::obs::metrics().reset_values();
  std::uint64_t cycles = 0;
  do {
    run_cycle(hard_deadline, [&](const Request&, const Outcome& outcome) {
      ledger.untraced_request_ns += outcome.ns;
    });
    const std::size_t first = ledger.requests.size();
    lz::obs::set_enabled(true);
    if (sweep()) {
      const lz::obs::TraceSpan span("bench.spec.parse");
      const auto parse_start = Clock::now();
      (void)lz::spec::expand_sweep(input_.sweep_text);
      ledger.parse_ns += ns_since(parse_start);
      ++ledger.parse_calls;
    }
    run_cycle(Clock::time_point::max(), [&](const Request& request,
                                            const Outcome& outcome) {
      pb::TracedRequest traced;
      traced.sim_class = outcome.hit ? pb::SimClass::kNone : request.sim_class;
      traced.hit = outcome.hit;
      traced.request_ns = outcome.ns;
      if (timed_) {
        traced.fetch_ns = timed_->fetch_ns;
        traced.store_ns = timed_->store_ns;
      }
      if (outcome.result) {
        const lz::sim::AggregateMetrics& a = outcome.result->aggregate;
        const double runs = static_cast<double>(a.replicas);
        traced.trials = request.scenario.replicas;
        if (!outcome.hit) {
          const double boundaries =
              a.mean_checkpoints_written + a.mean_checkpoints_skipped;
          traced.boundaries =
              static_cast<std::uint64_t>(std::llround(boundaries * runs));
          traced.failures =
              static_cast<std::uint64_t>(std::llround(a.mean_failures * runs));
        }
        side_calls(request, outcome, &traced, &ledger);
      }
      ledger.requests.push_back(traced);
    });
    lz::obs::set_enabled(false);
    // Fold this cycle's spans into the ledger now, so memory stays flat
    // unless a trace file was asked for.
    std::vector<lz::obs::TraceEvent> events = lz::obs::drain_events();
    const std::vector<double> busy = pb::sim_busy_per_request(events);
    if (busy.size() != ledger.requests.size() - first) {
      throw std::runtime_error("trace holds " + std::to_string(busy.size()) +
                               " bench.request spans for " +
                               std::to_string(ledger.requests.size() - first) +
                               " requests");
    }
    for (std::size_t i = 0; i < busy.size(); ++i) {
      ledger.requests[first + i].sim_ns = busy[i];
    }
    if (!options_.trace_out.empty()) {
      kept.insert(kept.end(), std::make_move_iterator(events.begin()),
                  std::make_move_iterator(events.end()));
    }
    if (store_) {
      ledger.bytes_read += store_->stats().bytes_read;
      ledger.bytes_written += store_->stats().bytes_written;
      ledger.fetch_calls += timed_->fetch_calls;
      ledger.store_calls += timed_->store_calls;
    }
    ++cycles;
  } while (ns_since(start) < options_.seconds * 1e9 &&
           Clock::now() < hard_deadline);

  const auto snapshot = lz::obs::metrics().snapshot();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto* value = snapshot.find(name);
    return value == nullptr ? 0 : value->count;
  };
  ledger.dispatch_batch = counter("sim.dispatch.batch");
  ledger.dispatch_fast = counter("sim.dispatch.fast");
  ledger.dispatch_generic = counter("sim.dispatch.generic");

  if (!options_.trace_out.empty()) {
    std::ofstream out(options_.trace_out, std::ios::binary);
    out << lz::obs::render_chrome_trace(kept);
    if (!out) throw std::runtime_error("cannot write " + options_.trace_out);
  }

  print_result(pb::ledger_metrics(ledger, options_.workload),
               ", \"requests\": " + std::to_string(ledger.requests.size()) +
                   ", \"cycles\": " + std::to_string(cycles) +
                   ", \"top_layer\": " +
                   pb::json_string(pb::top_layer(ledger, options_.workload)));
}

std::string Bench::digest(std::size_t count) {
  const std::size_t cycles = (count + cycle_.size() - 1) / cycle_.size();
  if (count < cycle_.size()) cycle_.resize(count);
  std::string bytes;
  for (std::size_t c = 0; c < cycles; ++c) {
    run_cycle(Clock::time_point::max(),
              [&](const Request&, const Outcome& outcome) {
      if (outcome.result) bytes += lz::cache::serialize_result(*outcome.result);
    });
  }
  return pb::fnv1a_hex(bytes);
}

void Bench::print_result(const std::vector<pb::Metric>& metrics,
                         const std::string& extra) const {
  std::string json = "{\"workload\": " +
                     pb::json_string(pb::workload_name(options_.workload)) +
                     ", \"seed\": " + std::to_string(options_.seed) +
                     ", \"input_digest\": " + pb::json_string(input_.digest) +
                     ", \"inputs_deterministic\": " +
                     (inputs_deterministic ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + extra +
                     ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    json += (i == 0 ? "" : ", ") + pb::json_string(errors_[i]);
  }
  json += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + pb::json_string(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + pb::json_string(metrics[i].unit) + "}";
  }
  json += "}, \"calibration\": " + pb::to_json(pb::calibrate(speed.probes())) + "}";
  std::cout << "RESULT " << json << std::endl;
}

int make_reference(pb::Workload workload) {
  const pb::GeneratedInput input = pb::universe(workload);
  const lz::spec::ScenarioRunner runner;
  std::vector<std::string> rows;
  if (workload == pb::Workload::kSweepReplay) {
    for (const auto& point : lz::spec::expand_sweep(input.sweep_text)) {
      const auto& s = point.scenario;
      rows.push_back(pb::Reference::format_row(
          pb::sweep_point_id({s.distribution, s.storage, s.policy, s.oci_hours,
                              s.seed}),
          runner.run(s)));
    }
  } else {
    for (const pb::RequestText& request : input.requests) {
      rows.push_back(pb::Reference::format_row(
          request.id, runner.run(lz::spec::parse_scenario(request.text))));
    }
  }
  std::sort(rows.begin(), rows.end());
  std::cout << "# perfbench reference: " << pb::workload_name(workload)
            << ", every request any seed can generate (id, then the values"
               " oracle.cpp reference_values lists)\n";
  for (const std::string& row : rows) std::cout << row;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    if (options.make_reference) return make_reference(options.workload);
    if (options.emit) {
      const pb::GeneratedInput input =
          pb::generate(options.workload, options.seed);
      std::cout << "# input digest " << input.digest << "\n"
                << input.sweep_text;
      for (const pb::RequestText& request : input.requests) {
        std::cout << "---\n" << request.text;
      }
      return 0;
    }

    Bench bench(options);
    bench.setup();
    if (options.digest_requests > 0) {
      std::cout << "DIGEST " << bench.digest(options.digest_requests) << "\n";
      return 0;
    }
    std::cout << "READY" << std::endl;
    // run.py scales each start's set-up time by the host's speed just
    // after it, as measure() scales request times.
    bench.speed.start();
    std::cout << "HOST_SCALE " << number(bench.speed.scale()) << std::endl;
    if (options.phase != "run") return 0;
    if (options.trace) {
      bench.traced();
    } else {
      bench.measure();
    }
    std::filesystem::remove_all(options.work_dir);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 1;
  }
}
