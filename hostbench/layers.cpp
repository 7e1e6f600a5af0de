#include "layers.h"

#include <cstdio>

namespace hostbench {

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"sim.events_per_commit", "count"},
      {"sim.dispatch_ns_per_event", "ns"},
      {"sim.allocs_per_event", "count"},
      {"net.packets_per_commit", "count"},
      {"net.bytes_per_commit", "bytes"},
      {"net.send_ns", "ns"},
      {"net.sample_ns", "ns"},
      {"wan.sample_ns", "ns"},
      {"rpc.deliver_ns.probe", "ns"},
      {"rpc.deliver_ns.submit", "ns"},
      {"rpc.deliver_ns.dfp", "ns"},
      {"rpc.deliver_ns.dm", "ns"},
      {"rpc.deliver_ns.reply", "ns"},
      {"rpc.deliver_ns.heartbeat", "ns"},
      {"rpc.deliver_ns.catchup", "ns"},
      {"rpc.timer_ns.submit", "ns"},
      {"rpc.timer_ns.probe", "ns"},
      {"rpc.timer_ns.heartbeat", "ns"},
      {"rpc.timer_ns.dfp", "ns"},
      {"rpc.timer_ns.dm", "ns"},
      {"rpc.timer_ns.catchup", "ns"},
      {"rpc.timer_ns.idle", "ns"},
      {"rpc.deliver_us_per_commit", "us"},
      {"rpc.timer_us_per_commit", "us"},
      {"wire.bytes_per_msg", "bytes"},
      {"measure.probes_per_commit", "count"},
      {"statemachine.workload_build_ms", "ms"},
      {"obs.overhead_frac", "ratio"},
      {"obs.trace_events_per_commit", "count"},
      {"recovery.restart_ms", "ms"},
      {"recovery.catchup_bytes_per_restart", "bytes"},
      {"client.retries_per_commit", "count"},
      {"net.drops_per_commit", "count"},
      {"tcp.poll_self_ns_per_commit", "ns"},
      {"tcp.send_ns", "ns"},
      {"tcp.busy_frac", "ratio"},
      {"loadgen.lag_p99_ms", "ms"},
      {"heap.allocs_per_commit", "count"},
      {"heap.allocs_per_commit.deliver", "count"},
      {"heap.allocs_per_commit.timer", "count"},
      {"heap.allocs_per_commit.send", "count"},
      {"heap.allocs_per_commit.dispatch", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return list;
}

namespace {
const SpanTotals& cell(const SpanTable& t, SpanKind k, Family f) {
  return t[static_cast<std::size_t>(k)][static_cast<std::size_t>(f)];
}
}  // namespace

void add_span_metrics(Report& rep, const SpanTable& table, double commits, double bytes,
                      double packets) {
  for (const Family f : {Family::kProbe, Family::kSubmit, Family::kDfp, Family::kDm,
                         Family::kReply, Family::kHeartbeat, Family::kCatchup}) {
    const SpanTotals& t = cell(table, SpanKind::kDeliver, f);
    rep.add(std::string("rpc.deliver_ns.") + family_name(f), mean_self_ns(t), "ns", t.count);
  }
  for (const Family f : {Family::kSubmit, Family::kProbe, Family::kHeartbeat, Family::kDfp,
                         Family::kDm, Family::kCatchup, Family::kIdle}) {
    const SpanTotals& t = cell(table, SpanKind::kTimer, f);
    rep.add(std::string("rpc.timer_ns.") + family_name(f), mean_self_ns(t), "ns", t.count);
  }
  const SpanTotals deliver = kind_totals(table, SpanKind::kDeliver);
  const SpanTotals timer = kind_totals(table, SpanKind::kTimer);
  const SpanTotals send = kind_totals(table, SpanKind::kSend);
  const SpanTotals dispatch = kind_totals(table, SpanKind::kDispatch);
  const auto per_commit = [commits](double v) { return ratio(v, commits); };
  rep.add("rpc.deliver_us_per_commit", per_commit(static_cast<double>(deliver.self_ns) / 1e3),
          "us");
  rep.add("rpc.timer_us_per_commit", per_commit(static_cast<double>(timer.self_ns) / 1e3),
          "us");
  rep.add("net.packets_per_commit", per_commit(packets), "count");
  rep.add("net.bytes_per_commit", per_commit(bytes), "bytes");
  rep.add("wire.bytes_per_msg", ratio(bytes, packets), "bytes");
  const SpanTotals& probe_sends = cell(table, SpanKind::kSend, Family::kProbe);
  rep.add("measure.probes_per_commit", per_commit(static_cast<double>(probe_sends.count)),
          "count");
  rep.add("heap.allocs_per_commit.deliver",
          per_commit(static_cast<double>(deliver.self_allocs)), "count");
  rep.add("heap.allocs_per_commit.timer", per_commit(static_cast<double>(timer.self_allocs)),
          "count");
  rep.add("heap.allocs_per_commit.send", per_commit(static_cast<double>(send.self_allocs)),
          "count");
  rep.add("heap.allocs_per_commit.dispatch",
          per_commit(static_cast<double>(dispatch.self_allocs)), "count");
}

void add_span_notes(Report& rep, const SpanTable& table) {
  rep.notes.push_back("span table: kind, family, count, self ms, total ms, self allocs");
  for (std::size_t k = 0; k < table.size(); ++k) {
    for (std::size_t f = 0; f < table[k].size(); ++f) {
      const SpanTotals& t = table[k][f];
      if (t.count == 0) continue;
      char line[200];
      std::snprintf(line, sizeof line, "  %-10s %-9s %9llu %10.3f %10.3f %10lld",
                    kind_name(static_cast<SpanKind>(k)), family_name(static_cast<Family>(f)),
                    static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.self_ns) / 1e6,
                    static_cast<double>(t.total_ns) / 1e6,
                    static_cast<long long>(t.self_allocs));
      rep.notes.push_back(line);
    }
  }
}

}  // namespace hostbench
