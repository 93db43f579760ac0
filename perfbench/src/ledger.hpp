#pragma once

/// \file ledger.hpp
/// \brief Per-layer accounting of the traced run.
///
/// Every number is measured from outside the program: the bench's own
/// clock around each public call it makes, the program's existing spans
/// (`sim.run_replicas`, `sim.run_hierarchy_replicas`,
/// `sim.run_campaign_replicas`) nested under the bench's `bench.request`
/// span, and the program's existing `sim.dispatch.*` counters.  Layers
/// with no span of their own (validation, factories, aggregation,
/// serialization) are timed by calling the same public function again on
/// the same inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Which simulation path a computed request takes.
enum class SimClass : std::uint8_t {
  kNone,        ///< served from the cache
  kFlatBatch,   ///< flat, sim::batch_eligible and batching on
  kFlatScalar,  ///< flat, scalar engine
  kBounded,     ///< bounded-iLazy (flat, scalar, Obs.-9 cap per boundary)
  kHierarchy,   ///< tier.N storage hierarchy
  kCampaign,    ///< chained allocations
};

/// What the traced run measured for one request.
struct TracedRequest {
  SimClass sim_class = SimClass::kNone;
  bool hit = false;            ///< served from the result cache
  double request_ns = 0.0;     ///< around ScenarioRunner::run
  double sim_ns = 0.0;         ///< outermost sim.* spans inside it
  double fetch_ns = 0.0;       ///< ResultCache::fetch, inside it
  double store_ns = 0.0;       ///< ResultCache::store, inside it
  double validate_ns = 0.0;    ///< Scenario::validate, re-called
  double build_ns = 0.0;       ///< factories + OCI derivation, re-called
  double aggregate_ns = 0.0;   ///< sim::aggregate*, re-called
  std::uint64_t trials = 0;      ///< replicas delivered
  std::uint64_t boundaries = 0;  ///< checkpoints written + skipped
  std::uint64_t failures = 0;
};

/// Totals of one traced run.
struct Ledger {
  std::vector<TracedRequest> requests;
  double untraced_request_ns = 0.0;  ///< the same requests, tracing off

  std::uint64_t parse_calls = 0;
  double parse_ns = 0.0;

  std::uint64_t fetch_calls = 0;
  std::uint64_t store_calls = 0;
  std::uint64_t bytes_read = 0;     ///< ResultStore::stats()
  std::uint64_t bytes_written = 0;  ///< ResultStore::stats()
  double deserialize_bytes = 0.0;
  double deserialize_ns = 0.0;
  double serialize_bytes = 0.0;
  double serialize_ns = 0.0;

  std::uint64_t dispatch_batch = 0;
  std::uint64_t dispatch_fast = 0;
  std::uint64_t dispatch_generic = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Busy time of the outermost `sim.*` spans inside each `bench.request`
/// span, in request order.  Only the thread that records the requests is
/// read; worker spans nest inside the caller's sim span.
[[nodiscard]] std::vector<double> sim_busy_per_request(
    const std::vector<lazyckpt::obs::TraceEvent>& events);

/// The per-layer metrics, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> ledger_metrics(const Ledger& ledger,
                                                 Workload workload);

/// The layer with the largest busy time, over the requests the
/// workload's target is judged on (sweep-replay: cache hits only).
[[nodiscard]] std::string top_layer(const Ledger& ledger, Workload workload);

}  // namespace perfbench
