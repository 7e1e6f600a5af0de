// The per-layer metric table a traced run prints, and the span-derived
// rows both traced runs (simulator and TCP) share.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "trace_ctx.h"

namespace hostbench {

/// Every per-layer metric (name, unit), in print order. A traced run
/// prints all of them on every workload: zero where it does not reach the
/// layer.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Rows that come straight from the span table: rpc.deliver_ns.<family>,
/// rpc.timer_ns.<family>, per-commit deliver/timer self time, per-span
/// heap allocations, and wire/probe counts. `commits` is the base of every
/// per-commit ratio.
void add_span_metrics(Report& rep, const SpanTable& table, double commits, double bytes,
                      double packets);

/// Human-readable span table appended to the report's notes.
void add_span_notes(Report& rep, const SpanTable& table);

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Mean self time per span, in ns.
[[nodiscard]] inline double mean_self_ns(const SpanTotals& t) {
  return ratio(static_cast<double>(t.self_ns), static_cast<double>(t.count));
}

}  // namespace hostbench
