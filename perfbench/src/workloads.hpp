#pragma once

/// \file workloads.hpp
/// \brief Seeded generators of scenario text for the four benchmark
/// workloads.
///
/// The generator owns its inputs end to end: it draws from its own
/// splitmix64 stream and writes `.scn` / `.scn.sweep` text, so a change to
/// the program's RNG or canonical writer never changes what the benchmark
/// sends.  Every request a seed can produce lies in a finite per-workload
/// universe of design points × scenario seeds; universe() enumerates it so
/// the committed reference (reference/<workload>.tsv) covers every request
/// of every workload seed.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kPaperFlat, kBoundedLazy, kTieredCampaign, kSweepReplay };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// One generated scenario request.  `id` is the bench-owned identity of
/// the design point (it is also the scenario's `name`) and keys the
/// reference table.
struct RequestText {
  std::string id;
  std::string text;
};

/// Everything a workload seed generates.
struct GeneratedInput {
  /// Scenario workloads: one cycle of requests, in send order.
  std::vector<RequestText> requests;
  /// sweep-replay: the grid, as `.scn.sweep` text.
  std::string sweep_text;
  /// 64-bit FNV-1a over all generated text, as 16 hex digits.
  std::string digest;
};

[[nodiscard]] GeneratedInput generate(Workload workload, std::uint64_t seed);

/// Every request any seed can generate: the scenario list for scenario
/// workloads, or one sweep grid spanning every axis value for
/// sweep-replay.
[[nodiscard]] GeneratedInput universe(Workload workload);

/// Bench-owned identity of an expanded sweep point, built from the
/// fields the generator wrote (never from the program's point digest).
struct SweepFields {
  std::string distribution;
  std::string storage;
  std::string policy;
  double oci_hours = 0.0;
  std::uint64_t seed = 0;
};
[[nodiscard]] std::string sweep_point_id(const SweepFields& fields);

/// sweep-replay request order and prefill set for `seed`, over points
/// sorted by id: `order` is a permutation of [0, n); `prefilled[i]` says
/// whether point i is on disk at the start of every pass.  Points sharing
/// a stratum differ only in OCI, so they cost about the same to simulate;
/// one in five of each stratum is missing, which keeps the cost of the
/// misses the same from seed to seed.
struct SweepPlan {
  std::vector<std::size_t> order;
  std::vector<bool> prefilled;
};
[[nodiscard]] SweepPlan plan_sweep(std::uint64_t seed,
                                   const std::vector<std::string>& strata);

/// 64-bit FNV-1a, hex.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

}  // namespace perfbench
