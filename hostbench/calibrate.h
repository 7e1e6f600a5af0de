// CPU-speed calibration. The machines this benchmark runs on share their
// cores with other tenants, and a busy neighbour slows every instruction
// for minutes at a time: the same run's CPU time per commit moved by 1.6x
// between two quiet-looking periods. A fixed, benchmark-owned kernel shaped
// like the simulator's hot path (an event heap of std::function callbacks,
// a hash map of small vectors, one allocation per event) is timed between
// repetitions, and CPU-bound metrics are scaled by reference / measured
// kernel time. Over 10-s windows this cut the spread of the Domino run's
// CPU time from about ±15% to about ±3%. The kernel calls no repository
// code, so no change to the program can move it.
#pragma once

#include <vector>

namespace hostbench {

/// A round figure near the kernel's CPU time on the machine the benchmark
/// was built on (a 4-vCPU Intel Xeon VM), in seconds. It sets the scale
/// of the reported figures; only ratios between runs matter.
inline constexpr double kCalibrationReferenceSeconds = 0.050;

/// Runs the calibration kernel once; returns the CPU seconds it took.
double calibration_seconds();

struct Report;

/// Reference / median of `samples`: multiply CPU-bound times by it, divide
/// rates by it. Notes the factor in the report.
double speed_scale(Report& rep, const std::vector<double>& samples);

}  // namespace hostbench
