#pragma once

/// \file oracle.hpp
/// \brief The correctness oracle behind the benchmark's `failed` count.
///
/// A request fails when it throws, when a replica breaks the accounting
/// identity or carries a non-finite field, when its aggregate leaves the
/// committed reference by more than kReferenceRelTol, or (sweep-replay)
/// when its serialized result is not byte-identical to the fresh
/// computation made at set-up.

#include <string>
#include <unordered_map>
#include <vector>

#include "spec/runner.hpp"

namespace perfbench {

/// Relative tolerance of the reference comparison.  A change that moves
/// any replica's trajectory shifts a mean of at most a few hundred
/// replicas by well over 1e-5; reassociating floating-point sums moves it
/// by under 1e-12.
inline constexpr double kReferenceRelTol = 1e-6;

/// Tolerance of the accounting identity, the same bound the engines
/// assert internally: |makespan − (compute + ckpt + waste + restart)| <=
/// 1e-6 · max(1, makespan).
inline constexpr double kIdentityRelTol = 1e-6;

/// Empty when every replica (or, in campaign mode, the aggregate) obeys
/// the accounting identity and every field is finite; else why not.
[[nodiscard]] std::string check_invariants(
    const lazyckpt::spec::ScenarioResult& result);

/// The values the reference pins for one result: the cross-replica
/// aggregate, plus the campaign summary or per-tier I/O when present.
[[nodiscard]] std::vector<double> reference_values(
    const lazyckpt::spec::ScenarioResult& result);

/// Per-workload reference table: `id<TAB>v1<TAB>v2…` lines, `%.17g`.
class Reference {
 public:
  /// Throws std::runtime_error when `path` cannot be read or parsed.
  [[nodiscard]] static Reference load(const std::string& path);

  /// One table line for `result` under `id`.
  [[nodiscard]] static std::string format_row(
      const std::string& id, const lazyckpt::spec::ScenarioResult& result);

  /// Empty when `result` matches the row for `id`; else why not.
  [[nodiscard]] std::string check(
      const std::string& id,
      const lazyckpt::spec::ScenarioResult& result) const;

 private:
  std::unordered_map<std::string, std::vector<double>> rows_;
};

}  // namespace perfbench
