#include "perfbench/layers.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <unordered_map>

#include "src/common/check.h"
#include "src/sim/task.h"

namespace perfbench {

using namespace cxlpool;

namespace {

using Clock = HostClock;

double HostNs(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since).count();
}

uint64_t CounterValue(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

// Sums the "value" of every series called `name` in a registry snapshot.
// Probe-backed series (agent.*) are only visible through the snapshot.
uint64_t SnapshotSum(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  const std::string value_key = "\"value\":";
  uint64_t sum = 0;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    size_t v = json.find(value_key, at);
    CXLPOOL_CHECK(v != std::string::npos);
    sum += std::stoull(json.substr(v + value_key.size(), 24));
  }
  return sum;
}

void AddHost(cxl::HostAdapter& host, Counters* c) {
  const cxl::HostAdapter::Stats& hs = host.stats();
  c->loads += hs.loads;
  c->nt_stores += hs.nt_stores;
  c->flushes += hs.flushes;
  c->invalidates += hs.invalidates;
  const mem::WriteBackCache::Stats& cs = host.cache().stats();
  c->cache_hits += cs.hits;
  c->cache_misses += cs.misses;
  c->writebacks += cs.writebacks;
}

void AddEndpoint(const Endpoint& ep, Counters* c) {
  c->doorbells += ep.nic.vnic->stats().doorbell_writes;
  c->tx_datagrams += ep.stack->stats().tx_datagrams;
  c->tx_no_buffer += ep.stack->stats().tx_no_buffer;
}

template <typename Fn>
double MeanCall(int n, Fn&& fn) {
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += fn(i);
  }
  return n > 0 ? total / n : 0;
}

}  // namespace

Counters ReadCounters(Rig& rig) {
  Counters c;
  cxl::CxlPod& pod = rig.rack->pod();
  for (int h = 0; h < pod.host_count(); ++h) {
    AddHost(pod.host(h), &c);
  }
  for (int i = 0; i < rig.rack->nic_count(); ++i) {
    const devices::Nic& nic = *rig.rack->nic(i);
    c.nic_frames += nic.nic_stats().tx_frames + nic.nic_stats().rx_frames;
    c.dma_bytes += nic.nic_stats().tx_bytes + nic.nic_stats().rx_bytes;
  }
  if (rig.ssd != nullptr) {
    c.ssd_reads += rig.ssd->ssd_stats().reads;
    c.ssd_writes += rig.ssd->ssd_stats().writes;
    c.dma_bytes +=
        rig.ssd->ssd_stats().read_bytes + rig.ssd->ssd_stats().write_bytes;
  }
  AddEndpoint(rig.server, &c);
  AddEndpoint(rig.client, &c);

  const obs::Registry& reg = rig.obs.metrics();
  std::string snapshot = reg.ToJson();
  c.forwarded = SnapshotSum(snapshot, "agent.forwarded_writes") +
                SnapshotSum(snapshot, "agent.forwarded_reads");
  c.kv_rx = CounterValue(reg, "kv.rx_requests");
  c.kv_shed = CounterValue(reg, "kv.shed_front") + CounterValue(reg, "kv.overloaded");
  c.kv_gets = CounterValue(reg, "kv.gets");
  c.kv_hits_pool = CounterValue(reg, "kv.get_hits_pool");
  c.kv_hits_ssd = CounterValue(reg, "kv.get_hits_ssd");
  c.kv_sets = CounterValue(reg, "kv.sets");
  c.kv_evictions = CounterValue(reg, "kv.evictions");
  c.kv_hydrations = CounterValue(reg, "kv.hydrations");
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.writebacks = a.writebacks - b.writebacks;
  d.loads = a.loads - b.loads;
  d.nt_stores = a.nt_stores - b.nt_stores;
  d.flushes = a.flushes - b.flushes;
  d.invalidates = a.invalidates - b.invalidates;
  d.dma_bytes = a.dma_bytes - b.dma_bytes;
  d.nic_frames = a.nic_frames - b.nic_frames;
  d.ssd_reads = a.ssd_reads - b.ssd_reads;
  d.ssd_writes = a.ssd_writes - b.ssd_writes;
  d.doorbells = a.doorbells - b.doorbells;
  d.tx_datagrams = a.tx_datagrams - b.tx_datagrams;
  d.tx_no_buffer = a.tx_no_buffer - b.tx_no_buffer;
  d.forwarded = a.forwarded - b.forwarded;
  d.kv_rx = a.kv_rx - b.kv_rx;
  d.kv_shed = a.kv_shed - b.kv_shed;
  d.kv_gets = a.kv_gets - b.kv_gets;
  d.kv_hits_pool = a.kv_hits_pool - b.kv_hits_pool;
  d.kv_hits_ssd = a.kv_hits_ssd - b.kv_hits_ssd;
  d.kv_sets = a.kv_sets - b.kv_sets;
  d.kv_evictions = a.kv_evictions - b.kv_evictions;
  d.kv_hydrations = a.kv_hydrations - b.kv_hydrations;
  return d;
}

int64_t KvServicePercentile(Rig& rig, double p) {
  const sim::Histogram* h = rig.obs.metrics().FindHistogram("kv.service_ns");
  return h != nullptr && h->count() > 0 ? h->Percentile(p) : 0;
}

std::vector<int64_t> SpanDurations(const obs::Tracer& tracer, const char* name,
                                   Nanos from, Nanos until) {
  std::vector<int64_t> out;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.start >= from && s.start < until && std::strcmp(s.name, name) == 0) {
      out.push_back(s.duration());
    }
  }
  return out;
}

int64_t SpanSelfTime(const obs::Tracer& tracer, const char* prefix,
                     Nanos from, Nanos until) {
  const auto& spans = tracer.spans();
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_span_id != 0) {
      children[spans[i].parent_span_id].push_back(i);
    }
  }
  const size_t plen = std::strlen(prefix);
  int64_t total = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.start < from || s.start >= until ||
        std::strncmp(s.name, prefix, plen) != 0) {
      continue;
    }
    // Union of child intervals clipped to the span.
    std::vector<std::pair<Nanos, Nanos>> cover;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      for (size_t ci : it->second) {
        Nanos a = std::max(spans[ci].start, s.start);
        Nanos b = std::min(spans[ci].end, s.end);
        if (a < b) {
          cover.emplace_back(a, b);
        }
      }
    }
    std::sort(cover.begin(), cover.end());
    Nanos covered = 0;
    Nanos reach = s.start;
    for (const auto& [a, b] : cover) {
      Nanos lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    total += s.duration() - covered;
  }
  return total;
}

void ReplayLive(Rig& rig, const std::vector<uint32_t>& ranks, Replay* out) {
  sim::EventLoop& loop = rig.loop;
  obs::Tracer* tracer = rig.obs.tracer();
  const int n = static_cast<int>(ranks.size());
  if (rig.store != nullptr) {
    out->store_get_sim_ns = MeanCall(n, [&](int i) {
      obs::Span span = obs::MaybeStartTrace(tracer, "bench.kv_get", kServerHost,
                                            loop.now());
      Nanos t0 = loop.now();
      auto host0 = Clock::now();
      auto r = sim::RunBlocking(
          loop, rig.store->Get(MainKey(ranks[i]), loop.now() + kMillisecond));
      out->store_get_host_ns += HostNs(host0) / n;
      CXLPOOL_CHECK_OK(r.status());
      span.End(loop.now());
      return static_cast<double>(loop.now() - t0);
    });
    out->store_set_sim_ns = MeanCall(n, [&](int i) {
      obs::Span span = obs::MaybeStartTrace(tracer, "bench.kv_set", kServerHost,
                                            loop.now());
      Nanos t0 = loop.now();
      Status st = sim::RunBlocking(
          loop, rig.store->Set(MainKey(ranks[i]),
                               kv::LoadGen::MakeValue(ranks[i], 1u << 30, kv::LoadGenConfig{}),
                               loop.now() + kMillisecond));
      CXLPOOL_CHECK_OK(st);
      span.End(loop.now());
      return static_cast<double>(loop.now() - t0);
    });
  }
  if (rig.ssd != nullptr) {
    // A forwarded write to the SSD's read-only capacity register travels
    // the whole path (client ring, home agent, device BAR) and changes no
    // device state.
    auto path = rig.rack->orchestrator().MakeMmioPath(HostId(kServerHost),
                                                      rig.ssd->id());
    CXLPOOL_CHECK_OK(path.status());
    out->forward_write_sim_ns = MeanCall(n, [&](int) {
      obs::Span span = obs::MaybeStartTrace(tracer, "bench.mmio_write",
                                            kServerHost, loop.now());
      Nanos t0 = loop.now();
      auto host0 = Clock::now();
      Status st = sim::RunBlocking(
          loop, (*path)->Write(devices::kSsdRegCapacity, 0, span.context(),
                               loop.now() + kMillisecond));
      out->forward_write_host_ns += HostNs(host0) / n;
      CXLPOOL_CHECK_OK(st);
      span.End(loop.now());
      return static_cast<double>(loop.now() - t0);
    });
    auto seg = rig.rack->pod().pool().Allocate(64 * kKiB);
    CXLPOOL_CHECK_OK(seg.status());
    const uint64_t first_lba = Rig::kStoreSsdBytes / devices::kSsdSectorSize;
    for (bool write : {true, false}) {
      double mean = MeanCall(n, [&](int i) {
        obs::Span span = obs::MaybeStartTrace(
            tracer, write ? "bench.ssd_write" : "bench.ssd_read", kServerHost,
            loop.now());
        uint64_t lba = first_lba + static_cast<uint64_t>(ranks[i]) * 4;
        uint64_t buf = seg->base + static_cast<uint64_t>(i % 32) * 2 * kKiB;
        Nanos t0 = loop.now();
        Nanos deadline = loop.now() + 10 * kMillisecond;
        auto st = sim::RunBlocking(
            loop, write ? rig.vssd->WriteBlocks(lba, 4, buf, deadline)
                        : rig.vssd->ReadBlocks(lba, 4, buf, deadline));
        CXLPOOL_CHECK(st.ok() && *st == devices::kSsdStatusOk);
        span.End(loop.now());
        return static_cast<double>(loop.now() - t0);
      });
      (write ? out->ssd_write_sim_ns : out->ssd_read_sim_ns) = mean;
    }
  }
}

void ReplayQuiet(Rig& rig, const std::vector<uint32_t>& sizes, Replay* out) {
  sim::EventLoop& loop = rig.loop;
  cxl::HostAdapter& host = rig.rack->pod().host(kServerHost);
  auto seg = rig.rack->pod().pool().Allocate(sizes.size() * 2 * kKiB);
  CXLPOOL_CHECK_OK(seg.status());
  const int n = static_cast<int>(sizes.size());
  double host_ns = 0;
  std::vector<std::byte> buf(2 * kKiB, std::byte{0x5a});
  // The consumer side of the software coherence protocol: publish with an
  // nt-store, write back, then load the line from pool memory.
  auto timed = [&](sim::Task<Status> op) {
    Nanos t0 = loop.now();
    auto host0 = Clock::now();
    CXLPOOL_CHECK_OK(sim::RunBlocking(loop, std::move(op)));
    host_ns += HostNs(host0);
    return static_cast<double>(loop.now() - t0);
  };
  for (int i = 0; i < n; ++i) {
    uint64_t addr = seg->base + static_cast<uint64_t>(i) * 2 * kKiB;
    std::span<std::byte> bytes(buf.data(), sizes[i]);
    out->nt_store_sim_ns += timed(host.StoreNt(addr, bytes)) / n;
    out->flush_sim_ns += timed(host.Flush(addr, sizes[i])) / n;
    out->load_sim_ns += timed(host.Load(addr, bytes)) / n;
  }
  out->mem_access_host_ns = n > 0 ? host_ns / (3.0 * n) : 0;

  constexpr int kEvents = 200000;
  int ran = 0;
  auto host0 = Clock::now();
  Nanos base = loop.now();
  for (int i = 0; i < kEvents; ++i) {
    loop.ScheduleAt(base + 1 + i % 1000, [&ran] { ++ran; });
  }
  loop.RunUntil(base + 1000);
  out->schedule_host_ns = HostNs(host0) / kEvents;
  CXLPOOL_CHECK(ran == kEvents);
}

}  // namespace perfbench
