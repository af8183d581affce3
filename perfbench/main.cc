// perfbench_sim: one workload of the pooled-I/O benchmark in one
// single-threaded process.
//
//   perfbench_sim --workload udp_echo|kv_hot|kv_spill --seed N
//                 --seconds S --trace 0|1
//
// A run builds the workload's pod (set-up, timed as setup_s), drives an
// open-loop operating phase sized from --seconds, then climbs a fixed
// offered-rate ladder until a rung misses the SLO. --trace 0 prints the
// end-to-end metrics. --trace 1 runs the workload twice, untraced and then
// traced, asserts that both simulate exactly the same thing, and prints the
// per-layer metrics from the traced pass plus direct replays of each
// layer's entry points. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Integrity, traffic or determinism check failures exit with code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/openloop.h"
#include "perfbench/rig.h"
#include "src/common/check.h"

namespace perfbench {
namespace {

using namespace cxlpool;
using Clock = HostClock;

const Clock::time_point kProcessStart{};  // CPU time starts at zero

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

uint64_t WindowSeed(uint64_t seed, uint64_t window) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + window * 0xbf58476d1ce4e5b9ULL + 1;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 29);
}

// Nearest-rank percentile; `v` is sorted.
int64_t Percentile(const std::vector<int64_t>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Window {
  WindowStats stats;          // latency_ns sorted
  std::vector<double> slice_ops_per_host_s;
  uint64_t backlog_mid = 0;
  uint64_t backlog_end = 0;
  uint64_t events = 0;        // executed while arrivals were due
  double host_s = 0;          // host time while arrivals were due
  Nanos start = 0;
  Nanos end = 0;
};

// One open-loop window: Poisson arrivals at `rate` for `duration` of sim
// time, cut into `slices` for host-time sampling, then drained until the
// last request's deadline so late replies count as failures.
Window RunWindow(Rig& rig, uint64_t seed, double rate, Nanos duration,
                 int slices) {
  sim::EventLoop& loop = rig.loop;
  Window w;
  w.start = loop.now() + kMicrosecond;
  w.end = w.start + duration;
  const KvMix* mix = rig.spec.kv ? &rig.spec.mix : nullptr;
  rig.gen->Begin(DrawSchedule(seed, rate, w.start, duration, mix));
  uint64_t events0 = loop.executed();
  auto host0 = Clock::now();
  for (int s = 1; s <= slices; ++s) {
    uint64_t settled0 = rig.gen->settled();
    auto slice0 = Clock::now();
    Nanos until = w.start + duration * s / slices;
    loop.RunUntil(until);
    w.slice_ops_per_host_s.push_back(
        static_cast<double>(rig.gen->settled() - settled0) / SecondsSince(slice0));
    if (s == (slices + 1) / 2) {
      w.backlog_mid = rig.gen->Outstanding(until);
    }
  }
  w.host_s = SecondsSince(host0);
  w.events = loop.executed() - events0;
  w.backlog_end = rig.gen->Outstanding(w.end);
  Nanos drain = rig.gen->last_deadline() + kMicrosecond;
  if (drain > loop.now()) {
    loop.RunUntil(drain);
  }
  for (int guard = 0; !rig.gen->senders_done(); ++guard) {
    CXLPOOL_CHECK(guard < 100000);
    loop.RunFor(10 * kMicrosecond);
  }
  w.stats = rig.gen->Finish();
  std::sort(w.stats.latency_ns.begin(), w.stats.latency_ns.end());
  return w;
}

struct Rung {
  double rate = 0;
  int64_t p99 = 0;
  double fail_frac = 0;
  double lag_frac = 0;
  bool backlog_grew = false;
  bool pass = false;
};

// Everything one pass over a workload measures.
struct Pass {
  std::vector<double> setup_s;
  Window op;
  Counters op_counters;
  int64_t kv_service_p50 = 0;
  int64_t kv_service_p99 = 0;
  std::vector<Rung> rungs;
  double slo_rate = 0;
  uint64_t executed = 0;
  double measured_host_s = 0;
  uint64_t integrity_failures = 0;
  uint64_t lost_dirty_lines = 0;
  std::unique_ptr<Rig> rig;
};

// Enough requests that at least ten lie beyond the 99.9th percentile.
constexpr double kMinOpRequests = 12000;

Nanos OpDuration(const WorkloadSpec& spec, int seconds) {
  Nanos by_time = spec.op_sim_per_host_s * seconds;
  Nanos by_count = static_cast<Nanos>(1e9 * kMinOpRequests / spec.op_rate);
  return std::max(by_time, by_count);
}

Pass RunPass(const WorkloadSpec& spec, uint64_t seed, int seconds, bool tracing,
             int setups) {
  Pass p;
  for (int k = 0; k < setups; ++k) {
    if (p.rig != nullptr) {
      p.rig->Shutdown();
      p.lost_dirty_lines += p.rig->lost_dirty_lines;
      p.rig.reset();
    }
    Clock::time_point t0 = k == 0 ? kProcessStart : Clock::now();
    p.rig = std::make_unique<Rig>(spec, tracing);
    Window warm = RunWindow(*p.rig, WindowSeed(seed, 0), spec.op_rate,
                            spec.warmup, 1);
    p.integrity_failures += warm.stats.integrity_failures;
    p.setup_s.push_back(SecondsSince(t0));
  }
  Rig& rig = *p.rig;
  auto host0 = Clock::now();
  Counters before = ReadCounters(rig);
  p.op = RunWindow(rig, WindowSeed(seed, 1), spec.op_rate,
                   OpDuration(spec, seconds), 8);
  p.op_counters = ReadCounters(rig) - before;
  p.kv_service_p50 = KvServicePercentile(rig, 0.50);
  p.kv_service_p99 = KvServicePercentile(rig, 0.99);
  p.integrity_failures += p.op.stats.integrity_failures;

  for (size_t i = 0; i < spec.ladder.size(); ++i) {
    Window w = RunWindow(rig, WindowSeed(seed, 2 + i), spec.ladder[i], spec.rung, 2);
    p.integrity_failures += w.stats.integrity_failures;
    Rung r;
    r.rate = spec.ladder[i];
    r.p99 = Percentile(w.stats.latency_ns, 0.99);
    r.fail_frac = Ratio(w.stats.failed, w.stats.attempted);
    r.lag_frac = Ratio(w.stats.late_sends, w.stats.attempted);
    r.backlog_grew = w.backlog_end > w.backlog_mid + w.backlog_mid / 2 + 32;
    r.pass = r.p99 <= spec.slo_p99 && r.fail_frac <= 0.001 && !r.backlog_grew;
    p.rungs.push_back(r);
    if (!r.pass) {
      break;
    }
    p.slo_rate = r.rate;
  }
  p.executed = rig.loop.executed();
  p.measured_host_s = SecondsSince(host0);
  return p;
}

// Checks shared by both modes; returns failure messages.
std::vector<std::string> CheckPass(const WorkloadSpec& spec, const Pass& p) {
  std::vector<std::string> bad;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      bad.push_back(what);
    }
  };
  const Counters& c = p.op_counters;
  double ops = static_cast<double>(p.op.stats.attempted);
  expect(p.integrity_failures == 0,
         std::to_string(p.integrity_failures) + " integrity failures");
  expect(p.lost_dirty_lines == 0, "dirty pool lines lost");
  expect(p.op.stats.attempted > 0, "no requests in the operating phase");
  double forwarded = Ratio(c.forwarded, ops);
  if (spec.name == "udp_echo") {
    expect(c.ssd_reads + c.ssd_writes == 0, "udp_echo sent SSD commands");
    expect(forwarded < 0.01, "udp_echo forwarded MMIO");
  }
  if (spec.name == "kv_hot") {
    expect(Ratio(c.kv_hits_pool, c.kv_gets) >= 0.99, "kv_hot pool hit ratio < 0.99");
    expect(c.kv_evictions == 0, "kv_hot evicted entries");
    expect(forwarded < 0.01, "kv_hot forwarded MMIO");
  }
  if (spec.name == "kv_spill") {
    expect(Ratio(c.kv_evictions, c.kv_sets) >= 0.5, "kv_spill < 0.5 evictions per SET");
    expect(c.kv_hits_ssd > 0, "kv_spill served no GET from the SSD");
    expect(forwarded > 0, "kv_spill forwarded no MMIO");
  }
  for (const Rung& r : p.rungs) {
    if (r.pass && r.rate == p.slo_rate) {
      expect(r.lag_frac < 0.01, "generator lag >= 1% at the top passing rung");
    }
  }
  return bad;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string kind;  // sim | host | count
  uint64_t samples;
};

void PrintResult(const std::vector<std::string>& bad, const Pass& p,
                 const std::vector<Metric>& table,
                 const std::vector<std::string>& json_names) {
  std::printf("%-26s %16s %-8s %-5s %9s\n", "metric", "value", "unit", "kind",
              "samples");
  for (const Metric& m : table) {
    std::printf("%-26s %16.6f %-8s %-5s %9" PRIu64 "\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.kind.c_str(), m.samples);
  }
  for (const std::string& b : bad) {
    std::printf("CHECK FAILED: %s\n", b.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", b.c_str());
  }
  std::string json = "{\"correct\": ";
  json += bad.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(p.op.stats.attempted);
  json += ", \"failed\": " + std::to_string(p.op.stats.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_names) {
    for (const Metric& m : table) {
      if (m.name != name) {
        continue;
      }
      char num[64];
      std::snprintf(num, sizeof(num), "%.10g", m.value);
      json += std::string(first ? "" : ", ") + "\"" + m.name +
              "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  constexpr int kSetups = 11;
  Pass p = RunPass(spec, seed, seconds, /*tracing=*/false, kSetups);
  p.rig->Shutdown();
  p.lost_dirty_lines += p.rig->lost_dirty_lines;
  std::vector<std::string> bad = CheckPass(spec, p);

  const std::vector<int64_t>& lat = p.op.stats.latency_ns;
  uint64_t n = lat.size();
  std::vector<Metric> table = {
      {"p50_us", Percentile(lat, 0.50) / 1e3, "us", "sim", n},
      {"p99_us", Percentile(lat, 0.99) / 1e3, "us", "sim", n},
  };
  if (n >= 10000) {  // at least ten samples beyond the 99.9th percentile
    table.push_back({"p999_us", Percentile(lat, 0.999) / 1e3, "us", "sim", n});
  }
  table.push_back({"fail_frac", Ratio(p.op.stats.failed, n), "ratio", "sim", n});
  table.push_back({"slo_rate_ops", p.slo_rate, "ops/s", "sim", p.rungs.size()});
  table.push_back({"ops_per_host_s", Median(p.op.slice_ops_per_host_s), "ops/s",
                   "host", p.op.slice_ops_per_host_s.size()});
  table.push_back({"setup_s", Median(p.setup_s), "s", "host", p.setup_s.size()});
  table.push_back({"peak_rss_mb", PeakRssMb(), "MB", "host", 1});

  std::printf("workload %s seed %" PRIu64 ": %" PRIu64 " requests at %.0f/s, "
              "%.3f ms simulated\n",
              spec.name.c_str(), seed, n, spec.op_rate,
              static_cast<double>(p.op.end - p.op.start) / 1e6);
  for (const Rung& r : p.rungs) {
    std::printf("  rung %9.0f/s  p99 %8.2f us  fail %.4f  lag %.4f%s  %s\n",
                r.rate, r.p99 / 1e3, r.fail_frac, r.lag_frac,
                r.backlog_grew ? "  backlog grew" : "", r.pass ? "pass" : "FAIL");
  }
  PrintResult(bad, p, table,
              {"p50_us", "p99_us", "p999_us", "slo_rate_ops", "ops_per_host_s",
               "setup_s", "peak_rss_mb"});
  return bad.empty() ? 0 : 1;
}

std::vector<uint32_t> OpGetRanks(const WorkloadSpec& spec, uint64_t seed,
                                 int seconds, size_t limit) {
  std::vector<uint32_t> ranks;
  if (!spec.kv) {
    return ranks;
  }
  for (const Arrival& a : DrawSchedule(WindowSeed(seed, 1), spec.op_rate, 0,
                                       OpDuration(spec, seconds), &spec.mix)) {
    if (a.kind == OpKind::kGet && ranks.size() < limit) {
      ranks.push_back(a.rank);
    }
  }
  return ranks;
}

int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  Pass plain = RunPass(spec, seed, seconds, /*tracing=*/false, 1);
  plain.rig->Shutdown();
  plain.lost_dirty_lines += plain.rig->lost_dirty_lines;
  plain.rig.reset();
  Pass p = RunPass(spec, seed, seconds, /*tracing=*/true, 1);
  Rig& rig = *p.rig;

  std::vector<std::string> bad = CheckPass(spec, plain);
  for (const std::string& b : CheckPass(spec, p)) {
    bad.push_back("traced: " + b);
  }
  auto same = [&](bool ok, const char* what) {
    if (!ok) {
      bad.push_back(std::string("tracing changed the simulation: ") + what);
    }
  };
  same(plain.executed == p.executed, "EventLoop::executed()");
  same(plain.op.stats.latency_ns == p.op.stats.latency_ns, "operating-phase latencies");
  same(plain.op.stats.failed == p.op.stats.failed, "failed requests");
  same(plain.slo_rate == p.slo_rate, "slo_rate_ops");
  same(plain.rungs.size() == p.rungs.size(), "ladder rungs");

  // Idle event rate: the rack with no load offered.
  rig.loop.RunFor(kMillisecond);
  uint64_t idle0 = rig.loop.executed();
  rig.loop.RunFor(kMillisecond);
  double idle_per_ms = static_cast<double>(rig.loop.executed() - idle0);

  std::vector<uint32_t> ranks = OpGetRanks(spec, seed, seconds, 128);
  Replay rp;
  ReplayLive(rig, ranks, &rp);
  rig.Shutdown();
  p.lost_dirty_lines += rig.lost_dirty_lines;
  std::vector<uint32_t> sizes;
  for (uint32_t r : ranks) {
    sizes.push_back(static_cast<uint32_t>(
        kv::LoadGen::MakeValue(r, 1, kv::LoadGenConfig{}).size()));
  }
  if (sizes.empty()) {
    sizes.assign(128, 64 + static_cast<uint32_t>(stack::kUdpHeaderSize));
  }
  ReplayQuiet(rig, sizes, &rp);
  if (p.lost_dirty_lines != 0) {
    bad.push_back("traced: dirty pool lines lost");
  }

  const obs::Tracer& tracer = *rig.obs.tracer();
  const Counters& c = p.op_counters;
  const WindowStats& s = p.op.stats;
  const double ops = static_cast<double>(s.attempted);
  std::vector<int64_t> qp = SpanDurations(tracer, "qp.submit_wait", p.op.start, p.op.end);
  std::sort(qp.begin(), qp.end());
  std::vector<int64_t> tx = s.tx_sim_ns;
  std::sort(tx.begin(), tx.end());
  std::vector<int64_t> srv = rig.server_sim_ns;
  std::sort(srv.begin(), srv.end());
  double ssd_busy_ns = 0;
  if (rig.ssd != nullptr) {
    devices::SsdConfig sc;  // the rig's SSD runs the default flash timings
    ssd_busy_ns = static_cast<double>(c.ssd_reads * sc.read_mean +
                                      c.ssd_writes * sc.write_mean) /
                  sc.channels;
  }
  double op_sim_ns = static_cast<double>(p.op.end - p.op.start);
  double rpc_self = static_cast<double>(
      SpanSelfTime(tracer, "rpc.", p.op.start, p.op.end));
  uint64_t n = s.attempted;
  std::vector<Metric> table = {
      {"sim.events_per_op", Ratio(p.op.events, ops), "count", "count", n},
      {"sim.host_ns_per_event", Ratio(p.op.host_s * 1e9, p.op.events), "ns", "host", p.op.events},
      {"sim.idle_events_per_ms", idle_per_ms, "1/ms", "count", 1},
      {"sim.schedule_host_ns", rp.schedule_host_ns, "ns", "host", 200000},
      {"mem.cache_hits_per_op", Ratio(c.cache_hits, ops), "count", "count", n},
      {"mem.cache_misses_per_op", Ratio(c.cache_misses, ops), "count", "count", n},
      {"mem.writebacks_per_op", Ratio(c.writebacks, ops), "count", "count", n},
      {"mem.access_host_ns", rp.mem_access_host_ns, "ns", "host", 3 * sizes.size()},
      {"cxl.loads_per_op", Ratio(c.loads, ops), "count", "count", n},
      {"cxl.load_sim_ns", rp.load_sim_ns, "ns", "sim", sizes.size()},
      {"cxl.nt_stores_per_op", Ratio(c.nt_stores, ops), "count", "count", n},
      {"cxl.nt_store_sim_ns", rp.nt_store_sim_ns, "ns", "sim", sizes.size()},
      {"cxl.flushes_per_op", Ratio(c.flushes, ops), "count", "count", n},
      {"cxl.flush_sim_ns", rp.flush_sim_ns, "ns", "sim", sizes.size()},
      {"cxl.invalidates_per_op", Ratio(c.invalidates, ops), "count", "count", n},
      {"cxl.dma_bytes_per_op", Ratio(c.dma_bytes, ops), "B", "count", n},
      {"nic.frames_per_op", Ratio(c.nic_frames, ops), "count", "count", n},
      {"ssd.cmds_per_op", Ratio(c.ssd_reads + c.ssd_writes, ops), "count", "count", n},
      {"ssd.busy_frac", Ratio(ssd_busy_ns, op_sim_ns), "ratio", "sim", c.ssd_reads + c.ssd_writes},
      {"ssd.read_sim_ns", rp.ssd_read_sim_ns, "ns", "sim", rig.ssd ? ranks.size() : 0},
      {"ssd.write_sim_ns", rp.ssd_write_sim_ns, "ns", "sim", rig.ssd ? ranks.size() : 0},
      {"core.doorbells_per_op", Ratio(c.doorbells, ops), "count", "count", n},
      {"core.qp_submit_ns_p50", static_cast<double>(Percentile(qp, 0.50)), "ns", "sim", qp.size()},
      {"core.qp_submit_ns_p99", static_cast<double>(Percentile(qp, 0.99)), "ns", "sim", qp.size()},
      {"msg.forwarded_per_op", Ratio(c.forwarded, ops), "count", "count", n},
      {"msg.forward_sim_ns", rp.forward_write_sim_ns, "ns", "sim", rig.ssd ? ranks.size() : 0},
      {"msg.forward_host_ns", rp.forward_write_host_ns, "ns", "host", rig.ssd ? ranks.size() : 0},
      {"msg.rpc_flight_self_ns", Ratio(rpc_self, c.forwarded), "ns", "sim", c.forwarded},
      {"stack.tx_sim_ns", static_cast<double>(Percentile(tx, 0.50)), "ns", "sim", tx.size()},
      {"stack.server_sim_ns", static_cast<double>(Percentile(srv, 0.50)), "ns", "sim", srv.size()},
      {"stack.tx_no_buffer_frac", Ratio(c.tx_no_buffer, c.tx_datagrams + c.tx_no_buffer), "ratio", "count", c.tx_datagrams},
      {"kv.service_ns_p50", static_cast<double>(p.kv_service_p50), "ns", "sim", c.kv_rx},
      {"kv.service_ns_p99", static_cast<double>(p.kv_service_p99), "ns", "sim", c.kv_rx},
      {"kv.pool_hit_ratio", Ratio(c.kv_hits_pool, c.kv_gets), "ratio", "count", c.kv_gets},
      {"kv.evictions_per_op", Ratio(c.kv_evictions, ops), "count", "count", n},
      {"kv.hydrations_per_op", Ratio(c.kv_hydrations, ops), "count", "count", n},
      {"kv.shed_frac", Ratio(c.kv_shed, c.kv_rx), "ratio", "count", c.kv_rx},
      {"kv.get_host_ns", rp.store_get_host_ns, "ns", "host", ranks.size()},
      {"kv.get_sim_ns", rp.store_get_sim_ns, "ns", "sim", ranks.size()},
      {"kv.set_sim_ns", rp.store_set_sim_ns, "ns", "sim", ranks.size()},
      {"gen.lag_frac", Ratio(s.late_sends, ops), "ratio", "count", n},
      {"obs.trace_overhead", Ratio(p.measured_host_s, plain.measured_host_s), "ratio", "host", 1},
  };
  std::vector<std::string> names;
  for (const Metric& m : table) {
    names.push_back(m.name);
  }
  std::printf("workload %s seed %" PRIu64 " traced: %zu spans, %" PRIu64
              " events\n",
              spec.name.c_str(), seed, tracer.spans().size(), p.executed);
  PrintResult(bad, p, table, names);
  return bad.empty() ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (argc % 2 != 1 || spec == nullptr || seed < 0 || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  uint64_t s = static_cast<uint64_t>(seed);
  return trace == 1 ? RunTraced(*spec, s, seconds) : RunEndToEnd(*spec, s, seconds);
}
