// Host-cost benchmark: what each committed command costs the host.
//
//   hostbench --workload <sim-domino|sim-baselines|sim-recovery|tcp-domino>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one line per metric (value, unit, sample count, quartiles over
// repetitions), the correctness guards that failed, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer table from a separate traced run. Exits 1 when a guard fails.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <string>

#include "arith.h"
#include "bench.h"
#include "layers.h"

namespace hostbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Report::add_stat(const std::string& name, const std::vector<double>& values,
                      const std::string& unit, double scale) {
  const Quartiles q = quartiles(values);
  metrics.push_back(
      Metric{name, median(values) * scale, unit, values.size(), q.q1 * scale, q.q3 * scale});
}

}  // namespace hostbench

namespace {

using hostbench::Metric;
using hostbench::Report;

// End-to-end metrics of the result line, in order. Two more are printed
// in the table only: failed_frac is 1 - acked_frac and reads exactly 0 on
// healthy runs; commit_p99_ms on real sockets follows the shared host's
// scheduling stalls (its 10-run spread reached 0.36).
const char* const kEndToEnd[] = {"setup_s",    "cpu_us_per_commit", "peak_rss_mb",
                                 "acked_frac", "commit_p50_ms",     "commits_per_s"};
const char* const kTableOnly[] = {"failed_frac", "commit_p99_ms"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <sim-domino|sim-baselines|"
               "sim-recovery|tcp-domino> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

hostbench::Options parse(int argc, char** argv) {
  hostbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %14.6f %-6s n=%zu", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  if (m.q1 != m.value || m.q3 != m.value) std::printf("  q1=%.6f q3=%.6f", m.q1, m.q3);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const hostbench::Options o = parse(argc, argv);
  Report rep;
  try {
    if (hostbench::is_sim_workload(o.workload)) {
      rep = hostbench::run_sim(o);
    } else if (o.workload == "tcp-domino") {
      rep = hostbench::run_tcp(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    // A protocol invariant thrown from inside the program is a failed
    // guard like any other: report it, with whatever was measured.
    rep.check(false, std::string("exception: ") + e.what());
  }

  std::map<std::string, Metric> by_name;
  for (const Metric& m : rep.metrics) by_name[m.name] = m;
  std::vector<Metric> result;
  if (o.trace) {
    for (const auto& [name, unit] : hostbench::layer_metrics()) {
      const auto it = by_name.find(name);
      result.push_back(it != by_name.end() ? it->second
                                           : Metric{name, 0.0, unit, 0, 0.0, 0.0});
    }
    for (const Metric& m : rep.metrics) {
      bool listed = false;
      for (const auto& [name, unit] : hostbench::layer_metrics()) {
        listed = listed || name == m.name;
      }
      rep.check(listed, "traced run produced unlisted metric " + m.name);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = by_name.find(name);
      rep.check(it != by_name.end(), std::string("missing end-to-end metric ") + name);
      if (it != by_name.end()) result.push_back(it->second);
    }
  }
  for (const Metric& m : result) {
    rep.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("hostbench %s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  for (const std::string& n : rep.notes) std::printf("  # %s\n", n.c_str());
  for (const Metric& m : result) print_metric(m);
  for (const char* name : kTableOnly) {
    if (!o.trace && by_name.contains(name)) print_metric(by_name[name]);
  }
  for (const std::string& f : rep.failures) std::printf("  FAILED GUARD: %s\n", f.c_str());

  const bool correct = rep.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < result.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                result[i].name.c_str(), std::isfinite(result[i].value) ? result[i].value : 0.0,
                result[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
