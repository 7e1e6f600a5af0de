// Simulator workloads: sim-domino, sim-baselines and sim-recovery.
//
// End-to-end runs call harness::run_protocol, the public entry point, on
// the Globe deployment at the paper's 200 requests/s per client. A run
// cycles through eight seeds derived from --seed, and every repetition of
// a seed must reproduce its virtual outputs and heap allocation count
// exactly.
//
// The traced run rebuilds each deployment the way harness/runner.cpp does,
// but owns the simulator and network so it can install span decorators:
// Domino nodes run over a TracingContext; the four baselines only take a
// net::Network&, so for them the run times the dispatch loop, latency
// samples and restarts, and cannot yet split deliver from send.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "calibrate.h"
#include "core/client.h"
#include "core/replica.h"
#include "epaxos/client.h"
#include "epaxos/replica.h"
#include "fastpaxos/client.h"
#include "fastpaxos/replica.h"
#include "harness/collector.h"
#include "harness/runner.h"
#include "heap_count.h"
#include "layers.h"
#include "mencius/client.h"
#include "mencius/replica.h"
#include "net/network.h"
#include "paxos/client.h"
#include "paxos/replica.h"
#include "rpc/sim_context.h"
#include "sim/simulator.h"
#include "trace_ctx.h"
#include "wan/delay_trace.h"
#include "wan/empirical.h"

namespace hostbench {
namespace {

using namespace domino;
using harness::Protocol;

struct SimWorkload {
  std::vector<Protocol> protocols;
  harness::Scenario scenario;
};

harness::Scenario globe_load(std::uint64_t seed) {
  harness::Scenario s = bench::globe_scenario();
  s.rps = 200;
  s.warmup = seconds(1);
  s.measure = seconds(4);
  s.cooldown = milliseconds(500);
  s.seed = seed;
  return s;
}

SimWorkload make_workload(const std::string& name, std::uint64_t seed,
                          std::shared_ptr<const wan::DelayTrace> trace) {
  SimWorkload w;
  w.scenario = globe_load(seed);
  if (name == "sim-domino") {
    w.protocols = {Protocol::kDomino};
    w.scenario.wan_trace = std::move(trace);  // VA links replay the fixture
  } else if (name == "sim-baselines") {
    w.protocols = {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                   Protocol::kFastPaxos};
  } else if (name == "sim-recovery") {
    w.protocols = {Protocol::kMultiPaxos, Protocol::kMencius, Protocol::kEPaxos,
                   Protocol::kFastPaxos, Protocol::kDomino};
    harness::Scenario& s = w.scenario;
    s.amnesia_crashes = true;
    s.sync_latency = milliseconds(2);
    s.client_request_timeout = seconds(1);
    s.client_max_retries = 8;
    // PR (replica 1, not the leader) is down for 300 ms mid-window and
    // restarts with only its durable image. The window stays below the
    // 500 ms failure detectors, as in the recovery test suite: longer
    // crashes trigger takeover rounds that Fast Paxos and Domino do not yet
    // survive (see hostbench/README.md, "Known defects").
    s.faults.crash_for(TimePoint::epoch() + s.warmup + milliseconds(1500), NodeId{1},
                       milliseconds(300));
  } else {
    throw std::invalid_argument("unknown sim workload " + name);
  }
  return w;
}

/// Everything a run produces in virtual time. Same seed => equal values.
struct VirtualOutputs {
  std::uint64_t submitted = 0, acked = 0, abandoned = 0, inflight = 0, retries = 0;
  std::uint64_t packets = 0, bytes = 0, dropped = 0, fault_digest = 0;
  std::vector<std::uint64_t> fingerprints;
  std::size_t latency_count = 0;
  double p50 = 0.0, p99 = 0.0;
  bool operator==(const VirtualOutputs&) const = default;
};

VirtualOutputs outputs_of(const harness::RunResult& r) {
  VirtualOutputs o;
  o.submitted = r.submitted;
  o.acked = r.client_committed;
  o.abandoned = r.client_abandoned;
  o.inflight = r.client_inflight_end;
  o.retries = r.client_retries;
  o.packets = r.packets_sent;
  o.bytes = r.bytes_sent;
  o.dropped = r.packets_dropped;
  o.fault_digest = r.fault_digest;
  o.fingerprints = r.replica_store_fingerprints;
  o.latency_count = r.latency.commit_ms.count;
  o.p50 = r.latency.commit_ms.p50;
  o.p99 = r.latency.commit_ms.p99;
  return o;
}

/// Liveness accounting holds at the end of every run.
void check_liveness(Report& rep, const std::string& label, const harness::RunResult& r) {
  rep.check(r.submitted == r.client_committed + r.client_abandoned + r.client_inflight_end,
            label + ": liveness invariant submitted == acked + abandoned + inflight");
  rep.check(r.client_committed > 0, label + ": no command acknowledged");
}

/// Replica stores agree once the run has drained: all replicas, or a
/// majority when a replica crashed. At the end of a timed run the last
/// commands may still be executing, so this untimed guard reruns the
/// workload's first seed with a 5 s cool-down.
void check_drained(Report& rep, const SimWorkload& w) {
  harness::Scenario s = w.scenario;
  s.cooldown = seconds(5);
  const bool majority_only = !s.faults.empty();
  for (const Protocol p : w.protocols) {
    const harness::RunResult r = harness::run_protocol(p, s);
    const std::string label =
        harness::protocol_name(p) + " seed " + std::to_string(s.seed) + " drained";
    check_liveness(rep, label, r);
    rep.check(r.client_inflight_end == 0, label + ": commands still in flight after draining");
    std::map<std::uint64_t, std::size_t> votes;
    for (const std::uint64_t f : r.replica_store_fingerprints) ++votes[f];
    std::size_t best = 0;
    for (const auto& [f, n] : votes) best = std::max(best, n);
    const std::size_t n = r.replica_store_fingerprints.size();
    rep.check(n > 0 && best >= (majority_only ? n / 2 + 1 : n),
              label + ": replica store fingerprints disagree");
  }
}

// ---------------------------------------------------------------------------
// Traced deployment: harness/runner.cpp's Env and run_*_impl, rebuilt with
// the simulator and network owned here so decorators can be installed.

NodeId replica_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(i)}; }
NodeId client_id(std::size_t i) { return NodeId{static_cast<std::uint32_t>(1000 + i)}; }

class TracedSim {
 public:
  TracedSim(const harness::Scenario& s, SpanRecorder& rec)
      : s_(s),
        rec_(rec),
        network_(simulator_, s.topology, s.seed),
        clock_rng_(s.seed ^ 0x5DEECE66Dull),
        window_start_(TimePoint::epoch() + s.warmup),
        window_end_(window_start_ + s.measure),
        collector_(window_start_, window_end_, s.client_dcs.size()),
        durable_(recovery::DurableConfig{s.sync_latency}),
        sim_context_(network_),
        context_(sim_context_, rec) {
    // Same final link models as use_default_links + apply_trace, each
    // wrapped in a timing decorator.
    const std::size_t n = s.topology.size();
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> trace_link;
    if (s.wan_trace != nullptr) {
      for (std::size_t k = 0; k < s.wan_trace->link_count(); ++k) {
        const auto& key = s.wan_trace->link(k);
        trace_link[{s.topology.index_of(key.from), s.topology.index_of(key.to)}] = k;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        std::unique_ptr<net::LatencyModel> inner;
        SpanKind kind = SpanKind::kSample;
        if (const auto it = trace_link.find({i, j}); it != trace_link.end()) {
          inner = std::make_unique<wan::EmpiricalLatency>(s.wan_trace->samples_at(it->second),
                                                          s.wan_config);
          kind = SpanKind::kWanSample;
        } else if (i == j) {
          inner = std::make_unique<net::ConstantLatency>(s.topology.owd(i, j));
        } else {
          inner = std::make_unique<net::JitterLatency>(s.topology.owd(i, j), s.jitter);
        }
        network_.set_link_model(i, j,
                                std::make_unique<TimedLatency>(std::move(inner), rec, kind));
      }
    }
    if (!s.faults.empty()) network_.install_faults(s.faults);
    if (s.amnesia_crashes) {
      network_.set_restart_hook([this](NodeId node) {
        const auto it = restarters_.find(node);
        if (it == restarters_.end()) return;
        ScopedSpan span(rec_, SpanKind::kRestart);
        it->second();
      });
    }
  }

  harness::RunResult run(Protocol p) {
    switch (p) {
      case Protocol::kMultiPaxos: return run_multipaxos();
      case Protocol::kMencius: return run_mencius();
      case Protocol::kEPaxos: return run_epaxos();
      case Protocol::kFastPaxos: return run_fastpaxos();
      case Protocol::kDomino: return run_domino();
    }
    throw std::logic_error("unknown protocol");
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] const TracingContext& context() const { return context_; }

 private:
  [[nodiscard]] bool durability() const {
    return s_.amnesia_crashes || s_.sync_latency > Duration::zero();
  }

  template <typename ReplicaT>
  void enable_recovery(ReplicaT& replica, NodeId id) {
    if (!durability()) return;
    replica.enable_durability(durable_);
    if (s_.amnesia_crashes) restarters_[id] = [r = &replica] { r->restart(); };
  }

  sim::LocalClock next_clock() {
    const double stddev = static_cast<double>(s_.clock_offset_stddev.nanos());
    return sim::LocalClock{Duration{static_cast<std::int64_t>(clock_rng_.normal(0, stddev))},
                           clock_rng_.normal(0, 5.0)};
  }

  template <typename ReplicaT>
  void hook_replica(ReplicaT& r, NodeId id) {
    r.attach();
    enable_recovery(r, id);
  }

  template <typename ReplicaT>
  void hook_execute(ReplicaT& r) {
    r.set_execute_hook(
        [this](const RequestId& id, TimePoint at) { collector_.on_execute(id, at); });
  }

  template <typename ClientT, typename ReplicaT>
  harness::RunResult drive(std::vector<std::unique_ptr<ClientT>>& clients,
                           const std::vector<std::unique_ptr<ReplicaT>>& replicas) {
    workloads_.reserve(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      workloads_.push_back(
          std::make_unique<sm::WorkloadGenerator>(s_.workload, s_.seed * 7919 + i));
      ClientT* client = clients[i].get();
      if (s_.client_request_timeout > Duration::zero()) {
        client->set_request_timeout(s_.client_request_timeout, s_.client_max_retries);
        client->set_retry_backoff(s_.client_backoff_multiplier, s_.client_backoff_cap,
                                  s_.client_backoff_jitter, s_.seed * 40503 + i);
      }
      client->set_send_hook(
          [this, i](const RequestId& id, TimePoint at) { collector_.on_send(i, id, at); });
      client->set_commit_hook([this, i](const RequestId& id, TimePoint sent, TimePoint at) {
        collector_.on_commit(i, id, sent, at);
      });
      const Duration stagger = milliseconds(1) * static_cast<std::int64_t>(i);
      simulator_.schedule_after(stagger, [this, client, i] {
        client->start_load(*workloads_[i], s_.rps);
      });
      simulator_.schedule_at(window_end_, [client] { client->stop_load(); });
    }
    {
      ScopedSpan span(rec_, SpanKind::kDispatch);
      events_ = simulator_.run_until(window_end_ + s_.cooldown);
    }
    harness::RunResult r;
    for (const auto& c : clients) {
      r.submitted += c->submitted_count();
      r.client_committed += c->committed_count();
      r.client_retries += c->retry_count();
      r.client_abandoned += c->abandoned_count();
      r.client_inflight_end += c->inflight_count();
    }
    r.committed = collector_.committed_count();
    r.packets_sent = network_.packets_sent();
    r.bytes_sent = network_.bytes_sent();
    r.packets_dropped = network_.packets_dropped();
    r.fault_digest = network_.fault().digest();
    r.recovery = durable_.aggregate();
    r.latency = collector_.summarize();
    for (const auto& rp : replicas) {
      r.replica_store_fingerprints.push_back(rp->store().fingerprint());
    }
    return r;
  }

  std::vector<NodeId> replica_ids() const {
    std::vector<NodeId> rids;
    for (std::size_t i = 0; i < s_.replica_dcs.size(); ++i) rids.push_back(replica_id(i));
    return rids;
  }

  harness::RunResult run_multipaxos() {
    const auto rids = replica_ids();
    const NodeId leader = rids[s_.leader_index];
    std::vector<std::unique_ptr<paxos::Replica>> replicas;
    for (std::size_t i = 0; i < rids.size(); ++i) {
      auto r = std::make_unique<paxos::Replica>(rids[i], s_.replica_dcs[i], network_, rids,
                                                leader, next_clock());
      hook_replica(*r, rids[i]);
      hook_execute(*r);
      replicas.push_back(std::move(r));
    }
    std::vector<std::unique_ptr<paxos::Client>> clients;
    for (std::size_t i = 0; i < s_.client_dcs.size(); ++i) {
      auto c = std::make_unique<paxos::Client>(client_id(i), s_.client_dcs[i], network_,
                                               leader, next_clock());
      c->attach();
      clients.push_back(std::move(c));
    }
    return drive(clients, replicas);
  }

  harness::RunResult run_mencius() {
    const auto rids = replica_ids();
    std::vector<std::unique_ptr<mencius::Replica>> replicas;
    for (std::size_t i = 0; i < rids.size(); ++i) {
      auto r = std::make_unique<mencius::Replica>(rids[i], s_.replica_dcs[i], network_, rids,
                                                  milliseconds(10), next_clock());
      hook_replica(*r, rids[i]);
      r->start();
      hook_execute(*r);
      replicas.push_back(std::move(r));
    }
    std::vector<std::unique_ptr<mencius::Client>> clients;
    for (std::size_t i = 0; i < s_.client_dcs.size(); ++i) {
      const NodeId coordinator =
          rids[harness::closest_replica(s_.topology, s_.replica_dcs, s_.client_dcs[i])];
      auto c = std::make_unique<mencius::Client>(client_id(i), s_.client_dcs[i], network_,
                                                 coordinator, next_clock());
      c->attach();
      clients.push_back(std::move(c));
    }
    return drive(clients, replicas);
  }

  harness::RunResult run_epaxos() {
    const auto rids = replica_ids();
    std::vector<std::unique_ptr<epaxos::Replica>> replicas;
    for (std::size_t i = 0; i < rids.size(); ++i) {
      auto r = std::make_unique<epaxos::Replica>(rids[i], s_.replica_dcs[i], network_, rids,
                                                 next_clock());
      hook_replica(*r, rids[i]);
      hook_execute(*r);
      replicas.push_back(std::move(r));
    }
    std::vector<std::unique_ptr<epaxos::Client>> clients;
    for (std::size_t i = 0; i < s_.client_dcs.size(); ++i) {
      const NodeId leader =
          rids[harness::closest_replica(s_.topology, s_.replica_dcs, s_.client_dcs[i])];
      auto c = std::make_unique<epaxos::Client>(client_id(i), s_.client_dcs[i], network_,
                                                leader, next_clock());
      c->attach();
      clients.push_back(std::move(c));
    }
    return drive(clients, replicas);
  }

  harness::RunResult run_fastpaxos() {
    const auto rids = replica_ids();
    const NodeId coordinator = rids[s_.leader_index];
    std::vector<std::unique_ptr<fastpaxos::Replica>> replicas;
    for (std::size_t i = 0; i < rids.size(); ++i) {
      auto r = std::make_unique<fastpaxos::Replica>(rids[i], s_.replica_dcs[i], network_,
                                                    rids, coordinator, milliseconds(500),
                                                    next_clock());
      hook_replica(*r, rids[i]);
      hook_execute(*r);
      replicas.push_back(std::move(r));
    }
    std::vector<std::unique_ptr<fastpaxos::Client>> clients;
    for (std::size_t i = 0; i < s_.client_dcs.size(); ++i) {
      auto c = std::make_unique<fastpaxos::Client>(client_id(i), s_.client_dcs[i], network_,
                                                   rids, next_clock());
      c->attach();
      clients.push_back(std::move(c));
    }
    return drive(clients, replicas);
  }

  harness::RunResult run_domino() {
    const auto rids = replica_ids();
    const NodeId coordinator = rids[s_.leader_index];
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::size_t i = 0; i < rids.size(); ++i) {
      core::ReplicaConfig rc;
      rc.prober.percentile = s_.measurement_percentile;
      rc.prober.probe_interval = s_.probe_interval;
      rc.prober.window = s_.measurement_window;
      rc.all_replicas_learn = s_.domino_all_learners;
      context_.place(rids[i], s_.replica_dcs[i]);
      auto r = std::make_unique<core::Replica>(rids[i], context_, rids, coordinator, rc,
                                               next_clock());
      hook_replica(*r, rids[i]);
      r->start();
      hook_execute(*r);
      replicas.push_back(std::move(r));
    }
    std::vector<std::unique_ptr<core::Client>> clients;
    for (std::size_t i = 0; i < s_.client_dcs.size(); ++i) {
      core::ClientConfig cc;
      cc.prober.percentile = s_.measurement_percentile;
      cc.prober.probe_interval = s_.probe_interval;
      cc.prober.window = s_.measurement_window;
      cc.additional_delay = s_.additional_delay;
      cc.mode = s_.domino_mode;
      cc.adaptive = s_.domino_adaptive;
      cc.timestamp_shard_space = s_.domino_timestamp_shard_space;
      context_.place(client_id(i), s_.client_dcs[i]);
      auto c = std::make_unique<core::Client>(client_id(i), context_, rids, cc, next_clock());
      c->attach();
      c->start();
      clients.push_back(std::move(c));
    }
    return drive(clients, replicas);
  }

  const harness::Scenario& s_;
  SpanRecorder& rec_;
  sim::Simulator simulator_;
  net::Network network_;
  Rng clock_rng_;
  TimePoint window_start_;
  TimePoint window_end_;
  harness::LatencyCollector collector_;
  std::vector<std::unique_ptr<sm::WorkloadGenerator>> workloads_;
  recovery::DurableStore durable_;
  std::unordered_map<NodeId, std::function<void()>> restarters_;
  rpc::SimContext sim_context_;
  TracingContext context_;
  std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------

struct Fixture {
  std::shared_ptr<const wan::DelayTrace> trace;
  double setup_s = 0.0;
};

/// One-time fixture load plus a zero-length run_protocol per protocol: the
/// set-up a user pays before the first simulated event.
Fixture set_up(const std::string& name, std::uint64_t seed) {
  const std::int64_t t0 = steady_ns();
  Fixture f;
  if (name == "sim-domino") {
    f.trace = std::make_shared<wan::DelayTrace>(wan::DelayTrace::load(HOSTBENCH_TRACE_FILE));
  }
  SimWorkload w = make_workload(name, seed, f.trace);
  w.scenario.warmup = w.scenario.measure = w.scenario.cooldown = Duration::zero();
  for (const Protocol p : w.protocols) (void)harness::run_protocol(p, w.scenario);
  f.setup_s = static_cast<double>(steady_ns() - t0) / 1e9;
  return f;
}

struct Rep {
  double cpu_s = 0.0, wall_s = 0.0;
  std::uint64_t allocs = 0, acked = 0;
  std::vector<VirtualOutputs> outputs;  // per protocol
};

/// Each run cycles through this many seeds derived from --seed, so its
/// latency percentiles average over several seeds and every seed still
/// repeats.
constexpr std::size_t kSeedsPerRun = 8;

Report run_untraced(const Options& o) {
  Report rep;
  std::vector<double> setup, calibration;
  Fixture fixture;
  for (int i = 0; i < 5; ++i) {
    calibration.push_back(calibration_seconds());
    fixture = set_up(o.workload, o.seed);
    setup.push_back(fixture.setup_s);
  }
  std::vector<SimWorkload> workloads;
  for (std::size_t j = 0; j < kSeedsPerRun; ++j) {
    workloads.push_back(make_workload(o.workload, o.seed * kSeedsPerRun + j, fixture.trace));
  }
  check_drained(rep, workloads[0]);

  std::vector<Rep> reps;
  // Virtual commit latency percentiles per seed of the first pass. Domino's
  // tail sits on a cliff (about 1% of commands take a second round trip),
  // so one seed's p99 is either ~370 or ~436 ms; their mean over seeds is
  // stable where the p99 of the pooled samples is not.
  std::vector<double> p50s, p99s;
  std::size_t latency_samples = 0;
  std::uint64_t submitted = 0, acked = 0;
  const std::int64_t deadline = steady_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (reps.size() < 2 * kSeedsPerRun || steady_ns() < deadline) {
    const std::size_t j = reps.size() % kSeedsPerRun;
    const SimWorkload& w = workloads[j];
    calibration.push_back(calibration_seconds());
    Rep r;
    StatAccumulator seed_latency;
    std::vector<harness::RunResult> results;
    results.reserve(w.protocols.size());
    const std::uint64_t a0 = heap_allocs();
    const double c0 = cpu_seconds();
    const std::int64_t w0 = steady_ns();
    for (const Protocol p : w.protocols) {
      results.push_back(harness::run_protocol(p, w.scenario));
    }
    r.wall_s = static_cast<double>(steady_ns() - w0) / 1e9;
    r.cpu_s = cpu_seconds() - c0;
    r.allocs = heap_allocs() - a0;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const harness::RunResult& res = results[k];
      r.outputs.push_back(outputs_of(res));
      r.acked += res.client_committed;
      rep.attempted += res.submitted;
      rep.failed += res.client_abandoned;
      if (reps.size() >= kSeedsPerRun) continue;
      const std::string label =
          harness::protocol_name(w.protocols[k]) + " seed " + std::to_string(w.scenario.seed);
      check_liveness(rep, label, res);
      seed_latency.merge(res.commit_ms);
      submitted += res.submitted;
      acked += res.client_committed;
      rep.notes.push_back(label + ": submitted " + std::to_string(res.submitted) + ", acked " +
                          std::to_string(res.client_committed) + ", abandoned " +
                          std::to_string(res.client_abandoned) + ", in flight at end " +
                          std::to_string(res.client_inflight_end) + ", retries " +
                          std::to_string(res.client_retries));
    }
    if (reps.size() < kSeedsPerRun) {
      p50s.push_back(seed_latency.percentile(50));
      p99s.push_back(seed_latency.percentile(99));
      latency_samples += seed_latency.count();
    }
    // Same seed as an earlier repetition: virtual outputs and heap
    // allocation counts must repeat exactly.
    if (reps.size() >= kSeedsPerRun) {
      const Rep& same = reps[j];
      const std::string label = "repetition " + std::to_string(reps.size());
      rep.check(r.outputs == same.outputs,
                label + ": virtual outputs differ from repetition " + std::to_string(j));
      rep.check(r.allocs == same.allocs, label + ": heap allocations " +
                                             std::to_string(r.allocs) + " != " +
                                             std::to_string(same.allocs));
    }
    reps.push_back(std::move(r));
  }

  std::vector<double> cpu_us, commits_per_s;
  for (const Rep& r : reps) {
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.acked));
    commits_per_s.push_back(static_cast<double>(r.acked) / r.wall_s);
  }
  const double acked_frac = static_cast<double>(acked) / static_cast<double>(submitted);

  const double speed = speed_scale(rep, calibration);
  rep.add_stat("setup_s", setup, "s", speed);
  rep.add_stat("cpu_us_per_commit", cpu_us, "us", speed);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("acked_frac", acked_frac, "ratio", submitted);
  rep.add("failed_frac", 1.0 - acked_frac, "ratio", submitted);
  double p50 = 0.0, p99 = 0.0;
  for (std::size_t j = 0; j < kSeedsPerRun; ++j) {
    p50 += p50s[j] / static_cast<double>(kSeedsPerRun);
    p99 += p99s[j] / static_cast<double>(kSeedsPerRun);
  }
  rep.add("commit_p50_ms", p50, "ms", latency_samples);
  rep.add("commit_p99_ms", p99, "ms", latency_samples);
  rep.add_stat("commits_per_s", commits_per_s, "1/s", 1.0 / speed);
  rep.notes.push_back("repetitions: " + std::to_string(reps.size()) + " over " +
                      std::to_string(kSeedsPerRun) +
                      " seeds; each seed's virtual outputs and heap allocation count repeated "
                      "exactly");
  rep.notes.push_back(
      "commit_p50_ms/commit_p99_ms: virtual-time commit latency, mean over seeds of each "
      "seed's percentile; commits_per_s: simulated commits per wall second");
  return rep;
}

// ---------------------------------------------------------------------------

double median_cpu_of(const std::function<void()>& fn, int reps) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const double c0 = cpu_seconds();
    fn();
    v.push_back(cpu_seconds() - c0);
  }
  return median(v);
}

Report run_traced(const Options& o) {
  Report rep;
  const Fixture fixture = set_up(o.workload, o.seed);
  const SimWorkload w = make_workload(o.workload, o.seed, fixture.trace);
  check_drained(rep, w);

  // Zipf table build, timed directly.
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = steady_ns();
    const sm::WorkloadGenerator g(w.scenario.workload, o.seed + static_cast<std::uint64_t>(i));
    build_ms.push_back(static_cast<double>(steady_ns() - t0) / 1e6);
  }

  harness::Scenario quiet = w.scenario;
  quiet.observability = false;

  std::uint64_t acked = 0, submitted = 0, abandoned = 0, retries = 0, drops = 0;
  std::uint64_t trace_events = 0, restarts = 0, catchup_bytes = 0, ref_allocs = 0;
  std::uint64_t events = 0, packets = 0, bytes = 0;
  double cpu_obs_on = 0.0, cpu_obs_off = 0.0, cpu_traced = 0.0;
  SpanTable table;
  std::vector<std::int64_t> restart_ns;
  for (const Protocol p : w.protocols) {
    const std::string label = harness::protocol_name(p);
    // Reference: the public entry point, untraced, observability on.
    const std::uint64_t a0 = heap_allocs();
    const harness::RunResult ref = harness::run_protocol(p, w.scenario);
    ref_allocs += heap_allocs() - a0;
    check_liveness(rep, label, ref);
    const VirtualOutputs ref_out = outputs_of(ref);
    acked += ref.client_committed;
    submitted += ref.submitted;
    abandoned += ref.client_abandoned;
    retries += ref.client_retries;
    drops += ref.packets_dropped;
    restarts += ref.recovery.restarts;
    catchup_bytes += ref.recovery.catchup_bytes;
    if (ref.trace != nullptr) trace_events += ref.trace->total_recorded();

    cpu_obs_on += median_cpu_of([&] { (void)harness::run_protocol(p, w.scenario); }, 3);
    cpu_obs_off += median_cpu_of([&] { (void)harness::run_protocol(p, quiet); }, 3);

    SpanRecorder rec;
    const double c0 = cpu_seconds();
    harness::RunResult traced;
    std::uint64_t run_events = 0;
    {
      TracedSim sim(quiet, rec);
      traced = sim.run(p);
      run_events = sim.events();
    }
    cpu_traced += cpu_seconds() - c0;
    rep.check(outputs_of(traced) == ref_out,
              label + ": traced virtual outputs differ from run_protocol");
    events += run_events;
    packets += traced.packets_sent;
    bytes += traced.bytes_sent;
    merge_into(table, aggregate(rec));
    for (const auto& r : rec.records()) {
      if (r.kind == SpanKind::kRestart) restart_ns.push_back(r.span.duration());
    }
    rep.notes.push_back(label + ": traced run matches run_protocol (" +
                        std::to_string(traced.client_committed) + " acked, " +
                        std::to_string(traced.packets_sent) + " packets, " +
                        std::to_string(traced.bytes_sent) + " bytes, " +
                        std::to_string(run_events) + " events)");
  }
  rep.attempted = submitted;
  rep.failed = abandoned;

  const double commits = static_cast<double>(acked);
  const SpanTotals dispatch = kind_totals(table, SpanKind::kDispatch);
  const SpanTotals send = kind_totals(table, SpanKind::kSend);
  const SpanTotals sample = kind_totals(table, SpanKind::kSample);
  const SpanTotals wan_sample = kind_totals(table, SpanKind::kWanSample);
  add_span_metrics(rep, table, commits, static_cast<double>(bytes),
                   static_cast<double>(packets));
  rep.add("sim.events_per_commit", ratio(static_cast<double>(events), commits), "count");
  rep.add("sim.dispatch_ns_per_event",
          ratio(static_cast<double>(dispatch.self_ns), static_cast<double>(events)), "ns");
  rep.add("sim.allocs_per_event",
          ratio(static_cast<double>(dispatch.self_allocs), static_cast<double>(events)),
          "count");
  rep.add("net.send_ns", mean_self_ns(send), "ns", send.count);
  rep.add("net.sample_ns", mean_self_ns(sample), "ns", sample.count);
  rep.add("wan.sample_ns", mean_self_ns(wan_sample), "ns", wan_sample.count);
  rep.add_stat("statemachine.workload_build_ms", build_ms, "ms");
  rep.add("obs.overhead_frac", ratio(cpu_obs_on - cpu_obs_off, cpu_obs_off), "ratio");
  rep.add("obs.trace_events_per_commit", ratio(static_cast<double>(trace_events), commits),
          "count");
  double restart_total = 0.0;
  for (const std::int64_t ns : restart_ns) restart_total += static_cast<double>(ns);
  rep.add("recovery.restart_ms",
          ratio(restart_total / 1e6, static_cast<double>(restart_ns.size())), "ms",
          restart_ns.size());
  rep.add("recovery.catchup_bytes_per_restart",
          ratio(static_cast<double>(catchup_bytes), static_cast<double>(restarts)), "bytes");
  rep.add("client.retries_per_commit", ratio(static_cast<double>(retries), commits), "count");
  rep.add("net.drops_per_commit", ratio(static_cast<double>(drops), commits), "count");
  rep.add("heap.allocs_per_commit", ratio(static_cast<double>(ref_allocs), commits), "count");
  rep.add("trace.overhead_frac", ratio(cpu_traced - cpu_obs_off, cpu_obs_off), "ratio");
  add_span_notes(rep, table);
  if (o.workload != "sim-domino") {
    rep.notes.push_back(
        "baselines run on net::Network directly: their deliver and send time stays inside "
        "sim.dispatch_ns_per_event until the program itself is traced");
  }
  return rep;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-domino" || name == "sim-baselines" || name == "sim-recovery";
}

Report run_sim(const Options& o) { return o.trace ? run_traced(o) : run_untraced(o); }

}  // namespace hostbench
