// tcp-domino: three Domino replicas and two clients on loopback, all on one
// net::tcp::EventLoop thread, built from core::Replica / core::Client over
// net::tcp::TcpContext. The only workload that runs real sockets and
// framing; it never enters the simulator.
//
// Phases, after set-up:
//   open loop   — each client is offered a fixed rate; every command due by
//                 the current tick is submitted, and its latency counts from
//                 its due time, so a late generator shows as latency;
//   closed loop — each client keeps a fixed number of commands outstanding;
//   drain       — outstanding commands get time to commit, then execution
//                 settles and the replica stores are compared.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "core/client.h"
#include "core/replica.h"
#include "heap_count.h"
#include "layers.h"
#include "net/tcp/tcp_context.h"
#include "statemachine/workload.h"
#include "trace_ctx.h"

namespace hostbench {
namespace {

using namespace domino;
using net::tcp::EventLoop;
using net::tcp::TcpContext;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kClients = 2;
constexpr double kOpenRatePerClient = 200.0;  // commands/s, well below capacity
constexpr std::size_t kOutstanding = 4;       // per client, closed loop

/// One loopback cluster. With a recorder, every node runs over a
/// TracingContext wrapped around the TcpContext.
struct Cluster {
  Cluster(std::uint64_t seed, SpanRecorder* rec) : tcp(loop) {
    if (rec != nullptr) traced.emplace(tcp, *rec);
    rpc::Context& ctx = traced ? static_cast<rpc::Context&>(*traced) : tcp;
    std::vector<NodeId> rids;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      rids.push_back(NodeId{static_cast<std::uint32_t>(i)});
    }
    for (const NodeId r : rids) tcp.host_node(r, {"127.0.0.1", 0});
    for (std::size_t i = 0; i < kClients; ++i) {
      tcp.host_node(NodeId{static_cast<std::uint32_t>(100 + i)}, {"127.0.0.1", 0});
    }
    core::ReplicaConfig rc;
    rc.heartbeat_interval = milliseconds(5);
    rc.prober.probe_interval = milliseconds(5);
    rc.prober.window = milliseconds(500);
    for (const NodeId r : rids) {
      replicas.push_back(std::make_unique<core::Replica>(r, ctx, rids, rids[0], rc));
      replicas.back()->attach();
      replicas.back()->start();
    }
    core::ClientConfig cc;
    cc.prober.probe_interval = milliseconds(5);
    cc.prober.window = milliseconds(500);
    cc.additional_delay = milliseconds(2);
    for (std::size_t i = 0; i < kClients; ++i) {
      const NodeId id{static_cast<std::uint32_t>(100 + i)};
      clients.push_back(std::make_unique<core::Client>(id, ctx, rids, cc));
      clients.back()->attach();
      clients.back()->start();
      const std::int64_t t0 = steady_ns();
      workloads.push_back(std::make_unique<sm::WorkloadGenerator>(sm::WorkloadConfig{},
                                                                  seed * 7919 + i));
      build_ms.push_back(static_cast<double>(steady_ns() - t0) / 1e6);
    }
  }

  [[nodiscard]] bool estimates_ready() const {
    return std::all_of(clients.begin(), clients.end(), [](const auto& c) {
      const auto e = c->estimates();
      return e.dfp != Duration::max() && e.dm != Duration::max();
    });
  }

  /// One poll of the loop; a dispatch span when traced.
  void poll(SpanRecorder* rec) {
    if (rec == nullptr) {
      loop.poll(milliseconds(1));
      return;
    }
    ScopedSpan span(*rec, SpanKind::kDispatch);
    loop.poll(milliseconds(1));
  }

  EventLoop loop;
  TcpContext tcp;
  std::optional<TracingContext> traced;
  std::vector<std::unique_ptr<core::Replica>> replicas;
  std::vector<std::unique_ptr<core::Client>> clients;
  std::vector<std::unique_ptr<sm::WorkloadGenerator>> workloads;
  std::vector<double> build_ms;
};

/// What one round measured.
struct Round {
  double setup_s = 0.0;
  std::vector<double> open_latency_ms;  // from due time
  std::vector<double> lag_ms;           // submit time - due time
  std::uint64_t submitted = 0, acked = 0, duplicate_acks = 0, unacked = 0;
  std::uint64_t closed_acked = 0;
  double closed_s = 0.0, cpu_s = 0.0, wall_s = 0.0;
  std::uint64_t allocs = 0;
  bool stores_agree = false;
  std::uint64_t applied = 0;
};

/// Open loop of kOpenPerClient commands per client, then a closed loop of
/// kClosedCommands, then drain and settle. Fixed counts keep every round
/// the same amount of work whatever the machine's speed.
constexpr std::uint64_t kOpenPerClient = 50;  // a quarter second at 200/s
constexpr std::uint64_t kClosedCommands = 3000;
// Enough rounds for 1,000 open-loop samples, so p99 has ten beyond it.
constexpr std::size_t kMinRounds = 1000 / (kOpenPerClient * kClients);

void drive(Cluster& c, SpanRecorder* rec, Round& run) {
  const auto interval = static_cast<std::int64_t>(1e9 / kOpenRatePerClient);

  struct Pending {
    std::int64_t due_ns;  // -1 for closed-loop commands
  };
  std::unordered_map<RequestId, Pending> pending;
  std::unordered_map<RequestId, int> ack_count;
  std::vector<std::size_t> refill(kClients, 0);  // closed-loop submissions owed
  std::int64_t last_closed_ack = 0;

  for (std::size_t i = 0; i < kClients; ++i) {
    c.clients[i]->set_commit_hook([&, i](const RequestId& id, TimePoint, TimePoint at) {
      if (++ack_count[id] > 1) {
        ++run.duplicate_acks;
        return;
      }
      const auto it = pending.find(id);
      if (it == pending.end()) return;
      ++run.acked;
      if (it->second.due_ns >= 0) {
        run.open_latency_ms.push_back(static_cast<double>(at.nanos() - it->second.due_ns) /
                                      1e6);
      } else {
        ++run.closed_acked;
        ++refill[i];
        last_closed_ack = at.nanos();
      }
      pending.erase(it);
    });
  }

  const auto submit = [&](std::size_t i, std::int64_t due_ns) {
    sm::Command cmd = c.workloads[i]->next(c.clients[i]->id());
    pending.emplace(cmd.id, Pending{due_ns});
    ++run.submitted;
    c.clients[i]->submit(std::move(cmd));
  };
  const auto now_ns = [&] { return c.loop.now().nanos(); };
  const auto drain = [&](std::int64_t max_ns) {
    const std::int64_t until = now_ns() + max_ns;
    while (!pending.empty() && now_ns() < until) c.poll(rec);
  };

  const std::uint64_t a0 = heap_allocs();
  const double c0 = cpu_seconds();
  const std::int64_t w0 = steady_ns();

  // Open loop: clients offset by half an interval.
  const std::int64_t start = now_ns() + interval;
  std::vector<OpenLoopSchedule> sched;
  for (std::size_t i = 0; i < kClients; ++i) {
    sched.emplace_back(start + static_cast<std::int64_t>(i) * interval / 2, interval,
                       kOpenPerClient);
  }
  while (!std::all_of(sched.begin(), sched.end(), [](const auto& s) { return s.done(); })) {
    c.poll(rec);
    for (std::size_t i = 0; i < kClients; ++i) {
      const std::uint64_t first = sched[i].issued();
      const std::uint64_t n = sched[i].take_due(now_ns());
      for (std::uint64_t k = first; k < first + n; ++k) {
        const std::int64_t due = sched[i].due_ns(k);
        run.lag_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
        submit(i, due);
      }
    }
  }
  drain(2'000'000'000);

  // Closed loop.
  const std::int64_t closed_start = now_ns();
  std::uint64_t closed_submitted = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    for (std::size_t k = 0; k < kOutstanding; ++k, ++closed_submitted) submit(i, -1);
  }
  const std::int64_t closed_deadline = closed_start + 20'000'000'000;
  while (run.closed_acked < kClosedCommands && now_ns() < closed_deadline) {
    c.poll(rec);
    for (std::size_t i = 0; i < kClients; ++i) {
      for (; refill[i] > 0; --refill[i]) {
        if (closed_submitted < kClosedCommands) {
          submit(i, -1);
          ++closed_submitted;
        }
      }
    }
  }
  run.closed_s = static_cast<double>(last_closed_ack - closed_start) / 1e9;
  drain(2'000'000'000);

  run.wall_s = static_cast<double>(steady_ns() - w0) / 1e9;
  run.cpu_s = cpu_seconds() - c0;
  run.allocs = heap_allocs() - a0;
  run.unacked = pending.size();

  // Execution settles; every replica must hold the same store.
  const auto agree = [&] {
    for (const auto& r : c.replicas) {
      if (r->store().applied_count() != c.replicas[0]->store().applied_count() ||
          r->store().items() != c.replicas[0]->store().items()) {
        return false;
      }
    }
    return true;
  };
  const std::int64_t settle = now_ns() + 1'000'000'000;
  const auto settled = [&] {
    return agree() && c.replicas[0]->store().applied_count() >= run.acked;
  };
  while (!settled() && now_ns() < settle) {
    c.poll(nullptr);
  }
  run.stores_agree = agree();
  run.applied = c.replicas[0]->store().applied_count();
}

/// Set up a fresh cluster and drive one round on it.
Round round(std::uint64_t seed, SpanRecorder* rec, Report& rep, const char* what) {
  Round run;
  const std::int64_t t0 = steady_ns();
  Cluster c(seed, rec);
  const std::int64_t deadline = t0 + 5'000'000'000;
  while (!c.estimates_ready() && steady_ns() < deadline) c.poll(nullptr);
  run.setup_s = static_cast<double>(steady_ns() - t0) / 1e9;
  rep.check(c.estimates_ready(), std::string(what) + ": clients never held valid estimates");
  if (!c.estimates_ready()) return run;

  const std::size_t first_span = rec != nullptr ? rec->records().size() : 0;
  drive(c, rec, run);
  rep.check(run.stores_agree, std::string(what) + ": replica stores differ after settle");
  rep.check(run.duplicate_acks == 0,
            std::string(what) + ": a command was acknowledged more than once");
  rep.check(run.acked > 0, std::string(what) + ": no command acknowledged");
  rep.check(run.applied >= run.acked,
            std::string(what) + ": replicas applied fewer commands than were acknowledged");
  rep.attempted += run.submitted;
  rep.failed += run.unacked;
  if (rec != nullptr) {
    // Per-layer figures come from the timed phase only (not set-up).
    const SpanTable table = aggregate(*rec, first_span);
    const double commits = static_cast<double>(run.acked);
    const SpanTotals dispatch = kind_totals(table, SpanKind::kDispatch);
    const SpanTotals send = kind_totals(table, SpanKind::kSend);
    add_span_metrics(rep, table, commits, static_cast<double>(c.traced->sent_bytes()),
                     static_cast<double>(send.count));
    rep.add_stat("statemachine.workload_build_ms", c.build_ms, "ms");
    rep.add("tcp.poll_self_ns_per_commit",
            ratio(static_cast<double>(dispatch.self_ns), commits), "ns");
    rep.add("tcp.send_ns",
            ratio(static_cast<double>(send.self_ns), static_cast<double>(send.count)), "ns",
            send.count);
    rep.add("tcp.busy_frac", ratio(run.cpu_s, run.wall_s), "ratio");
    rep.add("loadgen.lag_p99_ms", percentile(run.lag_ms, 99), "ms", run.lag_ms.size());
    add_span_notes(rep, table);
  }
  return run;
}

Report run_untraced(const Options& o) {
  Report rep;
  std::vector<Round> rounds;
  std::vector<double> calibration;
  const std::int64_t deadline = steady_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (rounds.size() < kMinRounds || steady_ns() < deadline) {
    calibration.push_back(calibration_seconds());
    const std::string what = "round " + std::to_string(rounds.size());
    rounds.push_back(round(o.seed * 1000 + rounds.size(), nullptr, rep, what.c_str()));
    if (!rep.failures.empty()) return rep;
  }

  std::vector<double> setup, cpu_us, commits_per_s, latency, lag;
  std::uint64_t submitted = 0, acked = 0;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.acked));
    commits_per_s.push_back(static_cast<double>(r.closed_acked) / r.closed_s);
    latency.insert(latency.end(), r.open_latency_ms.begin(), r.open_latency_ms.end());
    lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
    submitted += r.submitted;
    acked += r.acked;
  }
  const std::size_t n = latency.size();
  const double acked_frac = static_cast<double>(acked) / static_cast<double>(submitted);
  const double speed = speed_scale(rep, calibration);
  rep.add_stat("setup_s", setup, "s", speed);
  rep.add_stat("cpu_us_per_commit", cpu_us, "us", speed);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("acked_frac", acked_frac, "ratio", submitted);
  rep.add("failed_frac", 1.0 - acked_frac, "ratio", submitted);
  rep.add("commit_p50_ms", percentile(latency, 50), "ms", n);
  rep.add("commit_p99_ms", percentile(latency, 99), "ms", n);
  rep.add_stat("commits_per_s", commits_per_s, "1/s", 1.0 / speed);
  const double tail = tail_percentile_for(n);
  char line[240];
  std::snprintf(line, sizeof line,
                "%zu rounds; open loop %llu commands/client at %.0f/s, closed loop %llu "
                "commands with %zu outstanding/client",
                rounds.size(), static_cast<unsigned long long>(kOpenPerClient),
                kOpenRatePerClient, static_cast<unsigned long long>(kClosedCommands),
                kOutstanding);
  rep.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "open loop: %zu samples; the highest tail with >=10 beyond it is p%.1f = "
                "%.3f ms; generator lag p99 %.3f ms",
                n, tail, percentile(latency, tail), percentile(lag, 99));
  rep.notes.push_back(line);
  rep.check(n >= 1000, "open loop has fewer than 1000 samples; p99 would have <10 beyond it");
  return rep;
}

Report run_traced(const Options& o) {
  Report rep;
  // An untraced round as the reference, then a traced round on a fresh
  // cluster whose nodes all run over a TracingContext.
  const Round ref = round(o.seed * 1000, nullptr, rep, "reference round");
  SpanRecorder rec;
  const Round run = round(o.seed * 1000 + 1, &rec, rep, "traced round");
  const double ref_cpu = ratio(ref.cpu_s, static_cast<double>(ref.acked));
  rep.add("heap.allocs_per_commit",
          ratio(static_cast<double>(ref.allocs), static_cast<double>(ref.acked)), "count");
  rep.add("trace.overhead_frac",
          ratio(ratio(run.cpu_s, static_cast<double>(run.acked)) - ref_cpu, ref_cpu), "ratio");
  return rep;
}

}  // namespace

Report run_tcp(const Options& o) { return o.trace ? run_traced(o) : run_untraced(o); }

}  // namespace hostbench
