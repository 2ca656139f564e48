// The four benchmark workloads. Each one generates its inputs from the
// seed, sets the program up, measures for the given number of seconds,
// checks every alert against the generator's ground truth, and returns
// its metrics: the end-to-end set from an untraced run, or (trace mode)
// the per-layer set from a traced run of the same calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< journals, traces and result files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Ground-truth, ledger, replay or traced-vs-untraced mismatches; any
  /// entry makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Generated input name -> FNV-1a hash (the input fingerprint).
  std::map<std::string, std::string> inputs;
  /// Sample counts, percentiles actually used, per-layer shares: the
  /// details that go to the result file next to the metrics.
  std::map<std::string, double> details;

  bool correct() const { return errors.empty(); }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
