#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

namespace perfbench {
namespace {

using lazyckpt::obs::EventKind;
using lazyckpt::obs::TraceEvent;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct ClassTotals {
  double busy_ns = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t boundaries = 0;
};

std::array<ClassTotals, 6> class_totals(const Ledger& ledger) {
  std::array<ClassTotals, 6> totals{};
  for (const TracedRequest& r : ledger.requests) {
    ClassTotals& t = totals[static_cast<std::size_t>(r.sim_class)];
    t.busy_ns += r.sim_ns;
    t.trials += r.trials;
    t.boundaries += r.boundaries;
  }
  return totals;
}

/// Busy time per layer over the requests a workload's target is judged
/// on, in a fixed order; the first entry names the request total.
std::vector<std::pair<std::string, double>> layer_busy(const Ledger& ledger,
                                                       bool hits_only) {
  double request = 0, flat = 0, bounded = 0, tiered = 0, aggregate = 0,
         validate = 0, build = 0, fetch = 0, store = 0;
  for (const TracedRequest& r : ledger.requests) {
    if (hits_only && !r.hit) continue;
    request += r.request_ns;
    switch (r.sim_class) {
      case SimClass::kFlatBatch:
      case SimClass::kFlatScalar: flat += r.sim_ns; break;
      case SimClass::kBounded: bounded += r.sim_ns; break;
      case SimClass::kHierarchy:
      case SimClass::kCampaign: tiered += r.sim_ns; break;
      case SimClass::kNone: break;
    }
    aggregate += r.aggregate_ns;
    validate += r.validate_ns;
    build += r.build_ns;
    fetch += r.fetch_ns;
    store += r.store_ns;
  }
  return {{"request", request},          {"sim.flat", flat},
          {"sim.bounded", bounded},      {"sim.hierarchy+campaign", tiered},
          {"sim.aggregate", aggregate},  {"spec.validate", validate},
          {"spec.build", build},         {"cache.fetch", fetch},
          {"cache.store", store}};
}

const char* target_layer(Workload workload) {
  switch (workload) {
    case Workload::kPaperFlat: return "sim.flat";
    case Workload::kBoundedLazy: return "sim.bounded";
    case Workload::kTieredCampaign: return "sim.hierarchy+campaign";
    case Workload::kSweepReplay: return "cache.fetch";
  }
  return "";
}

}  // namespace

std::vector<double> sim_busy_per_request(
    const std::vector<TraceEvent>& events) {
  std::vector<double> busy;
  bool have_tid = false;
  std::uint32_t tid = 0;
  int sim_depth = 0;
  lazyckpt::obs::TimeNs sim_start = 0;
  for (const TraceEvent& event : events) {
    const std::string_view name = event.name == nullptr ? "" : event.name;
    if (name == "bench.request" && event.kind == EventKind::kBegin) {
      if (!have_tid) {
        tid = event.tid;
        have_tid = true;
      }
      if (event.tid == tid) busy.push_back(0.0);
      continue;
    }
    if (!have_tid || event.tid != tid || busy.empty() ||
        !name.starts_with("sim.")) {
      continue;
    }
    if (event.kind == EventKind::kBegin) {
      if (sim_depth++ == 0) sim_start = event.ts_ns;
    } else if (event.kind == EventKind::kEnd && sim_depth > 0) {
      if (--sim_depth == 0) {
        busy.back() += static_cast<double>(event.ts_ns - sim_start);
      }
    }
  }
  return busy;
}

std::vector<Metric> ledger_metrics(const Ledger& ledger, Workload workload) {
  const auto totals = class_totals(ledger);
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto count = [&add](const std::string& name, std::uint64_t value) {
    add(name, static_cast<double>(value), "count");
  };
  auto sim_layer = [&](const std::string& prefix, SimClass c) {
    const ClassTotals& t = totals[static_cast<std::size_t>(c)];
    add(prefix + ".busy_ms", t.busy_ns / 1e6, "ms");
    count(prefix + ".trials", t.trials);
    add(prefix + ".ns_per_boundary",
        ratio(t.busy_ns, static_cast<double>(t.boundaries)), "ns");
  };
  sim_layer("sim.flat.batch", SimClass::kFlatBatch);
  sim_layer("sim.flat.scalar", SimClass::kFlatScalar);
  const ClassTotals& bounded =
      totals[static_cast<std::size_t>(SimClass::kBounded)];
  add("sim.bounded.busy_ms", bounded.busy_ns / 1e6, "ms");
  count("sim.bounded.boundaries", bounded.boundaries);
  add("sim.bounded.us_per_boundary",
      ratio(bounded.busy_ns / 1e3, static_cast<double>(bounded.boundaries)),
      "us");
  sim_layer("sim.hierarchy", SimClass::kHierarchy);
  sim_layer("sim.campaign", SimClass::kCampaign);

  double aggregate_ns = 0, validate_ns = 0, build_ns = 0, fetch_ns = 0,
         store_ns = 0, request_ns = 0;
  std::uint64_t boundaries = 0, failures = 0, hits = 0;
  for (const TracedRequest& r : ledger.requests) {
    aggregate_ns += r.aggregate_ns;
    validate_ns += r.validate_ns;
    build_ns += r.build_ns;
    fetch_ns += r.fetch_ns;
    store_ns += r.store_ns;
    request_ns += r.request_ns;
    boundaries += r.boundaries;
    failures += r.failures;
    hits += r.hit ? 1 : 0;
  }
  add("sim.aggregate.busy_ms", aggregate_ns / 1e6, "ms");
  count("sim.boundaries", boundaries);
  count("sim.failures", failures);
  count("sim.dispatch.batch", ledger.dispatch_batch);
  count("sim.dispatch.fast", ledger.dispatch_fast);
  count("sim.dispatch.generic", ledger.dispatch_generic);
  count("spec.parse.calls", ledger.parse_calls);
  add("spec.parse.busy_ms", ledger.parse_ns / 1e6, "ms");
  add("spec.validate.busy_ms", validate_ns / 1e6, "ms");
  add("spec.build.busy_ms", build_ns / 1e6, "ms");
  count("cache.fetch.calls", ledger.fetch_calls);
  add("cache.fetch.busy_ms", fetch_ns / 1e6, "ms");
  add("cache.hit_rate",
      ratio(static_cast<double>(hits), static_cast<double>(ledger.fetch_calls)),
      "fraction");
  add("cache.bytes_read", static_cast<double>(ledger.bytes_read), "B");
  add("cache.deserialize.mb_per_s",
      ratio(ledger.deserialize_bytes / 1e6, ledger.deserialize_ns / 1e9),
      "MB/s");
  count("cache.store.calls", ledger.store_calls);
  add("cache.store.busy_ms", store_ns / 1e6, "ms");
  add("cache.bytes_written", static_cast<double>(ledger.bytes_written), "B");
  add("cache.serialize.mb_per_s",
      ratio(ledger.serialize_bytes / 1e6, ledger.serialize_ns / 1e9), "MB/s");
  add("obs.trace_overhead_frac",
      ratio(request_ns, ledger.untraced_request_ns) - 1.0, "fraction");

  // How much of the traced request time the layers above explain, and
  // whether the workload's target layer is the largest of them.
  const auto all = layer_busy(ledger, false);
  double accounted = 0.0;
  for (std::size_t i = 1; i < all.size(); ++i) accounted += all[i].second;
  const auto judged = layer_busy(ledger, workload == Workload::kSweepReplay);
  double target = 0.0;
  for (const auto& [name, busy] : judged) {
    if (name == target_layer(workload)) target = busy;
  }
  add("bench.request_ms", request_ns / 1e6, "ms");
  add("bench.accounted_frac", ratio(accounted, request_ns), "fraction");
  add("bench.target_share", ratio(target, judged[0].second), "fraction");
  add("bench.target_is_top",
      top_layer(ledger, workload) == target_layer(workload) ? 1.0 : 0.0,
      "flag");
  return m;
}

std::string top_layer(const Ledger& ledger, Workload workload) {
  const auto judged = layer_busy(ledger, workload == Workload::kSweepReplay);
  const auto top = std::max_element(
      judged.begin() + 1, judged.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return top->first;
}

}  // namespace perfbench
