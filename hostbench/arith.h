// The benchmark's own arithmetic: order statistics over repetitions, the
// tail-percentile choice, self time of nested spans, and open-loop latency
// measured from each command's due time. Header-only and free of the
// library so test_arith.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hostbench {

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = (p / 100.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) gives
/// them (its default "exclusive" method), so the spread the benchmark
/// prints is the spread the acceptance check computes.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const std::int64_t n = 4, m = ld + 1;
  double out[3];
  for (std::int64_t i = 1; i < n; ++i) {
    std::int64_t j = i * m / n;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    out[i - 1] =
        (v[j - 1] * static_cast<double>(n - delta) + v[j] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it; p50 when even p90 does not.
inline double tail_percentile_for(std::size_t samples) {
  for (const double q : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(samples) * (1.0 - q / 100.0) >= 10.0 - 1e-9) return q;
  }
  return 50.0;
}

/// One closed span. `parent` indexes the enclosing span in the same
/// vector, or is -1 for a top-level span. Children close before parents.
struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t allocs = 0;  // heap allocations inside the span, children included
  [[nodiscard]] std::int64_t duration() const { return end_ns - begin_ns; }
};

/// Self time and self allocations per span: its own duration (count)
/// minus what its direct children cover.
struct SelfCost {
  std::vector<std::int64_t> ns;
  std::vector<std::int64_t> allocs;
};
inline SelfCost self_costs(const std::vector<Span>& spans) {
  SelfCost out;
  out.ns.resize(spans.size());
  out.allocs.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.ns[i] = spans[i].duration();
    out.allocs[i] = static_cast<std::int64_t>(spans[i].allocs);
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::out_of_range("self_costs: bad parent index");
    }
    out.ns[static_cast<std::size_t>(s.parent)] -= s.duration();
    out.allocs[static_cast<std::size_t>(s.parent)] -= static_cast<std::int64_t>(s.allocs);
  }
  return out;
}

/// Open-loop arrival schedule: command k is due at start + k * interval.
/// The generator submits every command due by `now` on each tick, so a
/// late tick delays commands without dropping them. Callers measure each
/// command's latency from due_ns(k), not from when it was sent.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, std::int64_t interval_ns, std::uint64_t total)
      : start_(start_ns), interval_(interval_ns), total_(total) {
    if (interval_ns <= 0) throw std::invalid_argument("OpenLoopSchedule: interval <= 0");
  }

  /// Commands due by `now_ns` that have not been issued yet; advances.
  [[nodiscard]] std::uint64_t take_due(std::int64_t now_ns) {
    if (now_ns < start_) return 0;
    const auto due = std::min<std::uint64_t>(
        static_cast<std::uint64_t>((now_ns - start_) / interval_) + 1, total_);
    const std::uint64_t n = due > issued_ ? due - issued_ : 0;
    issued_ += n;
    return n;
  }

  [[nodiscard]] std::int64_t due_ns(std::uint64_t k) const {
    return start_ + static_cast<std::int64_t>(k) * interval_;
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] bool done() const { return issued_ >= total_; }

 private:
  std::int64_t start_;
  std::int64_t interval_;
  std::uint64_t total_;
  std::uint64_t issued_ = 0;
};

}  // namespace hostbench
