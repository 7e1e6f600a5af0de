// Benchmark-side tracing: an in-memory span recorder, an rpc::Context
// decorator that wraps receivers, scheduled callbacks and sends in spans,
// and a net::LatencyModel decorator that times every latency sample.
//
// Spans come only from the benchmark's own calls into each layer's public
// functions; nothing inside the program is instrumented. The decorators
// forward every call unchanged, so a traced run produces the same virtual
// outputs as an untraced one (sim_bench.cpp checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arith.h"
#include "heap_count.h"
#include "net/latency_model.h"
#include "rpc/context.h"
#include "wire/message.h"

namespace hostbench {

inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer boundary a span was recorded at.
enum class SpanKind : std::uint8_t {
  kDispatch,   // Simulator::run_until / EventLoop::poll (the caller's loop)
  kDeliver,    // a node's receiver, called by the transport
  kTimer,      // a callback scheduled through Context::schedule
  kSend,       // Context::send
  kSample,     // LatencyModel::sample on a synthetic (jitter/constant) link
  kWanSample,  // LatencyModel::sample on a trace-replay link
  kRestart,    // an amnesiac restart() called from the network restart hook
  kCount
};
inline const char* kind_name(SpanKind k) {
  static const char* const names[] = {"dispatch", "deliver", "timer", "send",
                                      "sample", "wan_sample", "restart"};
  return names[static_cast<int>(k)];
}

/// Message family of a payload, by its wire type. Timer spans take the
/// family of the first message they send, or kIdle when they send none.
enum class Family : std::uint8_t {
  kProbe, kSubmit, kDfp, kDm, kReply, kHeartbeat, kCatchup, kOther, kIdle, kCount
};
inline const char* family_name(Family f) {
  static const char* const names[] = {"probe",     "submit",  "dfp",   "dm",  "reply",
                                      "heartbeat", "catchup", "other", "idle"};
  return names[static_cast<int>(f)];
}

inline Family family_of(const domino::wire::Payload& payload) {
  using domino::wire::MessageType;
  if (payload.size() < 2) return Family::kOther;
  const auto t = domino::wire::peek_type(payload);
  switch (t) {
    case MessageType::kProbe:
    case MessageType::kProbeReply:
    case MessageType::kProxyQuery:
    case MessageType::kProxyReport: return Family::kProbe;
    case MessageType::kDfpPropose:
    case MessageType::kDmPropose: return Family::kSubmit;
    case MessageType::kDfpAcceptNotice:
    case MessageType::kDfpCommit:
    case MessageType::kDfpRecoveryAccept:
    case MessageType::kDfpRecoveryReply:
    case MessageType::kDfpRangeRecover:
    case MessageType::kDfpRangeReply:
    case MessageType::kDfpRangeResolve: return Family::kDfp;
    case MessageType::kDmAccept:
    case MessageType::kDmAcceptReply:
    case MessageType::kDmCommit:
    case MessageType::kDmRevoke:
    case MessageType::kDmRevokeReply:
    case MessageType::kDmRevokeResult: return Family::kDm;
    case MessageType::kDfpClientReply:
    case MessageType::kDmClientReply:
    case MessageType::kDominoExecuted: return Family::kReply;
    case MessageType::kDominoHeartbeat: return Family::kHeartbeat;
    case MessageType::kCatchupRequest:
    case MessageType::kCatchupReply: return Family::kCatchup;
    default: return Family::kOther;
  }
}

/// std::allocator replacement that bypasses operator new, so the span
/// store's own growth never shows up in the heap counts it records.
template <typename T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <typename U>
  MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  template <typename U>
  bool operator==(const MallocAllocator<U>&) const { return true; }
};

/// Spans kept in memory for the whole traced run; aggregated at the end.
class SpanRecorder {
 public:
  struct Record {
    Span span;
    SpanKind kind;
    Family family;
  };

  SpanRecorder() {
    records_.reserve(1 << 20);
    stack_.reserve(64);
  }

  std::int32_t open(SpanKind kind, Family family) {
    const auto id = static_cast<std::int32_t>(records_.size());
    Record r{};
    r.span.parent = stack_.empty() ? -1 : stack_.back();
    r.kind = kind;
    r.family = family;
    r.span.allocs = heap_allocs();
    r.span.begin_ns = steady_ns();
    records_.push_back(r);
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    Record& r = records_[static_cast<std::size_t>(id)];
    r.span.end_ns = steady_ns();
    r.span.allocs = heap_allocs() - r.span.allocs;
    stack_.pop_back();
  }

  /// A send inside a timer span names the timer's family if it has none.
  void note_send(Family family) {
    if (stack_.empty()) return;
    Record& top = records_[static_cast<std::size_t>(stack_.back())];
    if (top.kind == SpanKind::kTimer && top.family == Family::kIdle) top.family = family;
  }

  [[nodiscard]] const std::vector<Record, MallocAllocator<Record>>& records() const {
    return records_;
  }

 private:
  std::vector<Record, MallocAllocator<Record>> records_;
  std::vector<std::int32_t, MallocAllocator<std::int32_t>> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, SpanKind kind, Family family = Family::kOther)
      : rec_(rec), id_(rec.open(kind, family)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

/// rpc::Context decorator. Forwards to `inner` (rpc::SimContext or
/// net::tcp::TcpContext) and records deliver/timer/send spans. Nodes built
/// over a Context pass dc 0 to register_node; `place()` supplies each
/// node's real datacenter instead, as the Network-based constructors do.
class TracingContext final : public domino::rpc::Context {
 public:
  TracingContext(domino::rpc::Context& inner, SpanRecorder& rec) : inner_(inner), rec_(rec) {}

  void place(domino::NodeId id, std::size_t dc) { dc_of_[id] = dc; }

  void send(domino::NodeId src, domino::NodeId dst, domino::wire::Payload payload) override {
    const Family f = family_of(payload);
    sent_bytes_ += payload.size();
    rec_.note_send(f);
    ScopedSpan span(rec_, SpanKind::kSend, f);
    inner_.send(src, dst, std::move(payload));
  }

  void schedule(domino::Duration delay, std::function<void()> fn) override {
    inner_.schedule(delay, [rec = &rec_, fn = std::move(fn)] {
      ScopedSpan span(*rec, SpanKind::kTimer, Family::kIdle);
      fn();
    });
  }

  [[nodiscard]] domino::TimePoint now() const override { return inner_.now(); }

  void register_node(domino::NodeId id, std::size_t dc, Receiver receiver) override {
    const auto it = dc_of_.find(id);
    inner_.register_node(id, it == dc_of_.end() ? dc : it->second,
                         [rec = &rec_, receiver = std::move(receiver)](
                             const domino::net::Packet& packet) {
                           ScopedSpan span(*rec, SpanKind::kDeliver,
                                           family_of(packet.payload));
                           receiver(packet);
                         });
  }

  [[nodiscard]] domino::obs::Sink obs() const override { return inner_.obs(); }

  /// Payload bytes passed to send() so far.
  [[nodiscard]] std::uint64_t sent_bytes() const { return sent_bytes_; }

 private:
  domino::rpc::Context& inner_;
  SpanRecorder& rec_;
  std::unordered_map<domino::NodeId, std::size_t> dc_of_;
  std::uint64_t sent_bytes_ = 0;
};

/// net::LatencyModel decorator installed with Network::set_link_model.
class TimedLatency final : public domino::net::LatencyModel {
 public:
  TimedLatency(std::unique_ptr<domino::net::LatencyModel> inner, SpanRecorder& rec,
               SpanKind kind)
      : inner_(std::move(inner)), rec_(rec), kind_(kind) {}

  [[nodiscard]] domino::Duration sample(domino::TimePoint now, domino::Rng& rng) override {
    ScopedSpan span(rec_, kind_);
    return inner_->sample(now, rng);
  }
  [[nodiscard]] domino::Duration base(domino::TimePoint now) const override {
    return inner_->base(now);
  }

 private:
  std::unique_ptr<domino::net::LatencyModel> inner_;
  SpanRecorder& rec_;
  SpanKind kind_;
};

/// Per (kind, family) totals over a recorder's spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_allocs = 0;
};
using SpanTable = std::vector<std::vector<SpanTotals>>;  // [kind][family]

/// Totals over the spans recorded from index `first` on (spans opened
/// earlier, e.g. during set-up, are left out).
inline SpanTable aggregate(const SpanRecorder& rec, std::size_t first = 0) {
  std::vector<Span> spans;
  for (std::size_t i = first; i < rec.records().size(); ++i) {
    Span s = rec.records()[i].span;
    if (s.parent >= 0) s.parent -= static_cast<std::int32_t>(first);
    spans.push_back(s);
  }
  const SelfCost self = self_costs(spans);
  SpanTable table(static_cast<std::size_t>(SpanKind::kCount),
                  std::vector<SpanTotals>(static_cast<std::size_t>(Family::kCount)));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& r = rec.records()[first + i];
    SpanTotals& t =
        table[static_cast<std::size_t>(r.kind)][static_cast<std::size_t>(r.family)];
    t.count += 1;
    t.self_ns += self.ns[i];
    t.total_ns += spans[i].duration();
    t.self_allocs += self.allocs[i];
  }
  return table;
}

inline void merge_into(SpanTable& into, const SpanTable& from) {
  if (into.empty()) {
    into = from;
    return;
  }
  for (std::size_t k = 0; k < from.size(); ++k) {
    for (std::size_t f = 0; f < from[k].size(); ++f) {
      into[k][f].count += from[k][f].count;
      into[k][f].self_ns += from[k][f].self_ns;
      into[k][f].total_ns += from[k][f].total_ns;
      into[k][f].self_allocs += from[k][f].self_allocs;
    }
  }
}

/// Sum of a kind's totals over every family.
inline SpanTotals kind_totals(const SpanTable& table, SpanKind kind) {
  SpanTotals out;
  for (const SpanTotals& t : table[static_cast<std::size_t>(kind)]) {
    out.count += t.count;
    out.self_ns += t.self_ns;
    out.total_ns += t.total_ns;
    out.self_allocs += t.self_allocs;
  }
  return out;
}

}  // namespace hostbench
