#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

using lazyckpt::sim::RunMetrics;

std::string identity_error(double makespan, double compute, double ckpt,
                           double waste, double restart, const char* what) {
  const double fields[] = {makespan, compute, ckpt, waste, restart};
  for (const double value : fields) {
    if (!std::isfinite(value)) return std::string(what) + ": non-finite field";
  }
  const double residual = makespan - (compute + ckpt + waste + restart);
  if (std::fabs(residual) > kIdentityRelTol * std::max(1.0, makespan)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: makespan %.17g != parts (residual %.3g)", what,
                  makespan, residual);
    return buf;
  }
  return {};
}

}  // namespace

std::string check_invariants(const lazyckpt::spec::ScenarioResult& result) {
  for (const double value : reference_values(result)) {
    if (!std::isfinite(value)) return "non-finite aggregate field";
  }
  for (const RunMetrics& run : result.runs) {
    if (!std::isfinite(run.data_written_gb)) return "replica: non-finite data";
    std::string error =
        identity_error(run.makespan_hours, run.compute_hours,
                       run.checkpoint_hours, run.wasted_hours,
                       run.restart_hours, "replica");
    if (!error.empty()) return error;
  }
  if (result.runs.empty()) {
    // Campaign mode keeps per-allocation runs inside the campaigns; the
    // identity is linear, so it must hold for the means too.
    const auto& a = result.aggregate;
    return identity_error(a.mean_makespan_hours, a.mean_compute_hours,
                          a.mean_checkpoint_hours, a.mean_wasted_hours,
                          a.mean_restart_hours, "aggregate");
  }
  return {};
}

std::vector<double> reference_values(
    const lazyckpt::spec::ScenarioResult& result) {
  const auto& a = result.aggregate;
  std::vector<double> values = {
      static_cast<double>(a.replicas), a.mean_makespan_hours,
      a.mean_compute_hours,            a.mean_checkpoint_hours,
      a.mean_wasted_hours,             a.mean_restart_hours,
      a.mean_failures,                 a.mean_checkpoints_written,
      a.mean_checkpoints_skipped,      a.mean_data_written_gb};
  if (result.campaign) {
    values.push_back(result.campaign->mean_allocations);
    values.push_back(result.campaign->mean_machine_hours);
    values.push_back(result.campaign->completion_rate);
  }
  if (result.hierarchy) {
    for (const auto& tier : result.hierarchy->tiers) {
      values.push_back(tier.mean_io_hours);
    }
  }
  return values;
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference reference;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    std::getline(fields, id, '\t');
    std::vector<double> values;
    std::string cell;
    while (std::getline(fields, cell, '\t')) {
      char* end = nullptr;
      values.push_back(std::strtod(cell.c_str(), &end));
      if (end == cell.c_str() || *end != '\0') {
        throw std::runtime_error("bad reference cell '" + cell + "' in " +
                                 path);
      }
    }
    reference.rows_[id] = std::move(values);
  }
  return reference;
}

std::string Reference::format_row(
    const std::string& id, const lazyckpt::spec::ScenarioResult& result) {
  std::string line = id;
  for (const double value : reference_values(result)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "\t%.17g", value);
    line += buf;
  }
  return line + "\n";
}

std::string Reference::check(
    const std::string& id, const lazyckpt::spec::ScenarioResult& result) const {
  const auto row = rows_.find(id);
  if (row == rows_.end()) return "no reference row for " + id;
  const std::vector<double> values = reference_values(result);
  if (values.size() != row->second.size()) {
    return id + ": result has " + std::to_string(values.size()) +
           " reference fields, table has " + std::to_string(row->second.size());
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double expected = row->second[i];
    if (std::fabs(values[i] - expected) >
        kReferenceRelTol * std::max(std::fabs(expected), 1e-3)) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s: field %zu is %.17g, reference %.17g",
                    id.c_str(), i, values[i], expected);
      return buf;
    }
  }
  return {};
}

}  // namespace perfbench
