#include "calibration.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "stats/exact_pow.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSpinIterations = 20'000'000;
constexpr int kProbeDraws = 30'000;
constexpr int kProbeGaps = 10'000;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A uniform draw in (0, 1] from a splitmix64 stream.
double unit_draw(std::uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 + 1e-18;
}

/// A dependent multiply-add chain the compiler cannot fold away.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

double wall_seconds(unsigned threads, std::uint64_t iterations) {
  std::vector<std::uint64_t> sinks(threads);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t, iterations] {
      sinks[t] = spin(iterations, t + 1);
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::uint64_t sink = 0;
  for (const std::uint64_t value : sinks) sink ^= value;
  if (sink == 42) std::fputs("", stderr);  // keeps the chains live
  return seconds;
}

std::string brand_string() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf < 0x80000004U) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char text[sizeof regs + 1] = {};
  std::memcpy(text, regs, sizeof regs);
  std::string brand(text);
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

/// avx512f + avx512dq, the test sim/batch_avx512.cpp makes before it
/// takes the batch kernel's wide path.
bool avx512_available() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

std::string env_or_unset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

/// One thread's best time over two runs of the fixed spin loop, in ms.
double spin_ms() {
  double one = 1e30;
  for (int trial = 0; trial < 2; ++trial) {
    one = std::min(one, wall_seconds(1, kSpinIterations));
  }
  return one * 1e3;
}

}  // namespace

double probe_ms() {
  const auto start = Clock::now();
  std::uint64_t state = 0x5eed;
  // Weibull draws alone: throughput-bound floating point.
  double sum = 0.0;
  for (int i = 0; i < kProbeDraws; ++i) {
    const double u = unit_draw(&state);
    sum += 3.0 * std::pow(-std::log(u), 1.0 / 0.7);
    if (sum > 1e9) sum -= 1e9;
  }
  // A checkpoint loop: each draw is a gap between failures, stepped
  // through in checkpoint periods, with a counter table in L1.
  std::array<std::uint32_t, 1024> written{};
  std::uint64_t checkpoints = 0;
  for (int i = 0; i < kProbeGaps; ++i) {
    const double u = unit_draw(&state);
    double gap = 11.0 * std::pow(-std::log(u), 1.0 / 0.6);
    const double period = 1.5 + 0.25 * static_cast<double>(i & 7);
    while (gap > period) {
      gap -= period;
      ++checkpoints;
      ++written[(checkpoints * 7 + (state >> 40)) & 1023];
    }
    sum += gap;
  }
  const double ms = ms_since(start);
  if (sum < 0.0 || written[3] == 0xffffffffU) std::fputs("", stderr);
  return ms;
}

void HostSpeed::start() {
  for (std::size_t i = 0; i < kWindow; ++i) probe();
}

void HostSpeed::tick() {
  if (ms_since(last_) >= kEveryMs) probe();
}

void HostSpeed::probe() {
  probes_.push_back(probe_ms());
  last_ = Clock::now();
  const std::size_t n = std::min(kWindow, probes_.size());
  std::vector<double> window(probes_.end() - static_cast<std::ptrdiff_t>(n),
                             probes_.end());
  std::nth_element(window.begin(), window.begin() + n / 2, window.end());
  scale_ = kProbeNominalMs / window[n / 2];
}

Calibration calibrate(const std::vector<double>& probes) {
  Calibration c;
  c.nproc = std::max(1U, std::thread::hardware_concurrency());
  double all = 1e30;
  for (int trial = 0; trial < 2; ++trial) {
    all = std::min(all, wall_seconds(c.nproc, kSpinIterations));
  }
  c.spin_ms = spin_ms();
  c.spin_parallelism = c.nproc * c.spin_ms / (all * 1e3);
  c.cpu_model = brand_string();
  c.avx512 = avx512_available();
  c.exact_pow_kernel = lazyckpt::stats::exact_pow_kernel();
  c.build_type = PERFBENCH_BUILD_TYPE;
  c.compiler = std::string("gcc-compatible ") + __VERSION__;
  c.threads_env = env_or_unset("LAZYCKPT_THREADS");
  c.batch_env = env_or_unset("LAZYCKPT_BATCH");
  if (!probes.empty()) {
    std::vector<double> sorted = probes;
    std::sort(sorted.begin(), sorted.end());
    c.probes = sorted.size();
    c.probe_ms_median = sorted[sorted.size() / 2];
    c.probe_ms_min = sorted.front();
    c.probe_ms_max = sorted.back();
  }
  return c;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string to_json(const Calibration& c) {
  char spin[64];
  std::snprintf(spin, sizeof spin,
                "\"spin_ms\": %.3f, \"spin_parallelism\": %.3f", c.spin_ms,
                c.spin_parallelism);
  char probe[160];
  std::snprintf(probe, sizeof probe,
                ", \"probes\": %zu, \"probe_ms_median\": %.4f, "
                "\"probe_ms_min\": %.4f, \"probe_ms_max\": %.4f, "
                "\"probe_ms_nominal\": %.2f",
                c.probes, c.probe_ms_median, c.probe_ms_min, c.probe_ms_max,
                kProbeNominalMs);
  return std::string("{\"nproc\": ") + std::to_string(c.nproc) + ", " + spin +
         ", \"cpu_model\": " + json_string(c.cpu_model) +
         ", \"avx512\": " + (c.avx512 ? "true" : "false") +
         ", \"exact_pow_kernel\": " + json_string(c.exact_pow_kernel) +
         ", \"build_type\": " + json_string(c.build_type) +
         ", \"compiler\": " + json_string(c.compiler) +
         ", \"LAZYCKPT_THREADS\": " + json_string(c.threads_env) +
         ", \"LAZYCKPT_BATCH\": " + json_string(c.batch_env) + probe + "}";
}

}  // namespace perfbench
