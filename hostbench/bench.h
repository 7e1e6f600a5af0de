// Shared types of the host-cost benchmark binary: options, the metric
// report every workload fills, and process-level probes (CPU time, RSS).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  // repetitions or latency samples behind `value`
  double q1 = 0.0;          // quartiles over repetitions (== value when samples == 1)
  double q3 = 0.0;
};

/// What one benchmark invocation measured and whether its outputs held.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // correctness guards that failed
  std::vector<std::string> notes;     // human-readable lines printed before the result
  std::uint64_t attempted = 0;        // commands submitted in the timed part
  std::uint64_t failed = 0;           // commands the clients gave up on

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics.push_back(Metric{name, value, unit, samples, value, value});
  }
  /// Median of `values` with its quartiles, each multiplied by `scale`.
  void add_stat(const std::string& name, const std::vector<double>& values,
                const std::string& unit, double scale = 1.0);
};

/// CPU time (user + system) this process has used, in seconds.
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Workload entry points; each fills the end-to-end metrics (or, with
/// Options::trace, the per-layer metrics) and its correctness guards.
[[nodiscard]] bool is_sim_workload(const std::string& name);
Report run_sim(const Options& options);
Report run_tcp(const Options& options);

}  // namespace hostbench
