#include "calibrate.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "arith.h"
#include "bench.h"

namespace hostbench {

namespace {
volatile std::uint64_t g_sink = 0;  // keeps the kernel's result alive
}  // namespace

double calibration_seconds() {
  const double c0 = cpu_seconds();
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> state;
  std::uint64_t x = 0x9E3779B97F4A7C15ull, seq = 0, now = 0, handled = 0, sum = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(std::uint64_t)> handle = [&](std::uint64_t key) {
    std::vector<std::uint8_t>& v = state[key % 4096];
    v.assign(32 + key % 64, static_cast<std::uint8_t>(key));
    sum += v.size();
    if (++handled >= 100'000) return;
    const std::uint64_t k = next();
    queue.push(Event{now + k % 1000, seq++, [&handle, k] { handle(k); }});
    if (k % 3 == 0) queue.push(Event{now + k % 777, seq++, [&handle, k] { handle(k >> 3); }});
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    queue.push(Event{i, seq++, [&handle, i] { handle(i); }});
  }
  while (!queue.empty()) {
    Event e = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    now = e.at;
    e.fn();
  }
  g_sink = sum;
  return cpu_seconds() - c0;
}

double speed_scale(Report& rep, const std::vector<double>& samples) {
  const double measured = median(samples);
  const double scale = kCalibrationReferenceSeconds / measured;
  char line[200];
  std::snprintf(line, sizeof line,
                "calibration kernel: median %.2f ms over %zu runs (reference %.0f ms); "
                "CPU-bound figures scaled by %.4f",
                measured * 1e3, samples.size(), kCalibrationReferenceSeconds * 1e3, scale);
  rep.notes.push_back(line);
  return scale;
}

}  // namespace hostbench
