#pragma once

/// \file calibration.hpp
/// \brief The machine block printed with every result: what the host
/// offers, what it measurably delivers, and how the program was built and
/// configured.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Calibration {
  unsigned nproc = 0;
  /// One thread's time for a fixed spin loop: the host's single-core
  /// speed at the end of the run, which drifts on shared hosts.
  double spin_ms = 0.0;
  /// Wall-clock speed-up of nproc threads spinning on private work over
  /// one thread: nproc on an idle dedicated host, lower when shared.
  double spin_parallelism = 0.0;
  std::string cpu_model;
  bool avx512 = false;  ///< avx512f + avx512dq: the batch kernel's wide path
  std::string exact_pow_kernel;
  std::string build_type;
  std::string compiler;
  std::string threads_env;  ///< LAZYCKPT_THREADS as set, or "unset"
  std::string batch_env;    ///< LAZYCKPT_BATCH as set, or "unset"
  /// probe_ms() over the measured pass: how many, and their median,
  /// fastest and slowest (all 0 when the pass took none).
  std::size_t probes = 0;
  double probe_ms_median = 0.0;
  double probe_ms_min = 0.0;
  double probe_ms_max = 0.0;
};

/// A typical probe_ms() on the reference host (the Baseline host in
/// README.md, whose runs had median probes of 1.2-1.8 ms as its load
/// changed).  Scaled timings are stated at this speed.
inline constexpr double kProbeNominalMs = 1.50;

/// One timing of a fixed kernel shaped like the simulator's work: Weibull
/// draws (splitmix64, log, pow), then failure gaps stepped through in
/// checkpoint periods.  On a shared host the program's speed follows what
/// other tenants take from the core, which a dependent spin chain misses
/// but this kernel sees: its time moves with the program's request time.
[[nodiscard]] double probe_ms();

/// The host's current speed, from probe_ms() taken every kEveryMs between
/// requests.  scale() turns a wall time measured now into the time it
/// would have taken at kProbeNominalMs: kProbeNominalMs over the median of
/// the last kWindow probes.
class HostSpeed {
 public:
  static constexpr double kEveryMs = 100.0;
  static constexpr std::size_t kWindow = 5;

  /// Fills the window; call before the first timed request.
  void start();
  /// Probes if the last probe is kEveryMs old; call between requests.
  void tick();
  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] const std::vector<double>& probes() const { return probes_; }

 private:
  void probe();

  std::vector<double> probes_;
  std::chrono::steady_clock::time_point last_;
  double scale_ = 1.0;
};

/// Probe the host (about 0.2 s of spinning) and summarize `probes`, the
/// probe_ms() values the measured pass took.
[[nodiscard]] Calibration calibrate(const std::vector<double>& probes);

/// One JSON object; strings are escaped.
[[nodiscard]] std::string to_json(const Calibration& calibration);

/// `text` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
