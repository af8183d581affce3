// Per-layer measurement from outside the simulator: one adapter that reads
// every counter the benchmark uses, span analysis over the rack tracer's
// records, and direct replays of each layer's public entry point.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "perfbench/rig.h"

namespace perfbench {

// Host time is CPU time of this (single-threaded) process: what the
// simulator costs to run, without the time a shared machine keeps it
// descheduled. Its epoch is process start.
struct HostClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<HostClock>;
  static constexpr bool is_steady = true;
  static time_point now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(ts.tv_sec * 1000000000LL + ts.tv_nsec));
  }
};

// Totals at one instant, summed over every host and device of the rig.
// Subtract two snapshots to get a phase's share.
struct Counters {
  // mem: the per-host write-back caches in front of pool memory.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t writebacks = 0;
  // cxl: CPU-side pool operations and device DMA.
  uint64_t loads = 0;
  uint64_t nt_stores = 0;
  uint64_t flushes = 0;
  uint64_t invalidates = 0;
  uint64_t dma_bytes = 0;  // payload bytes NICs and SSDs moved by DMA
  // devices and core.
  uint64_t nic_frames = 0;
  uint64_t ssd_reads = 0;
  uint64_t ssd_writes = 0;
  uint64_t doorbells = 0;
  // stack.
  uint64_t tx_datagrams = 0;
  uint64_t tx_no_buffer = 0;
  // msg (agent.* series).
  uint64_t forwarded = 0;
  // kv (kv.* series).
  uint64_t kv_rx = 0;
  uint64_t kv_shed = 0;
  uint64_t kv_gets = 0;
  uint64_t kv_hits_pool = 0;
  uint64_t kv_hits_ssd = 0;
  uint64_t kv_sets = 0;
  uint64_t kv_evictions = 0;
  uint64_t kv_hydrations = 0;
};

// The one place that reads simulator counters: obs::Registry series where
// they exist, the remaining public stats() accessors otherwise.
Counters ReadCounters(Rig& rig);
Counters operator-(const Counters& a, const Counters& b);

// Percentiles of the kv node's kv.service_ns histogram (0 when absent).
int64_t KvServicePercentile(Rig& rig, double p);

// Durations of the tracer's spans named `name` that started in
// [from, until).
std::vector<int64_t> SpanDurations(const cxlpool::obs::Tracer& tracer,
                                   const char* name, Nanos from, Nanos until);
// Summed self time (duration minus the part covered by child spans) of
// spans whose name starts with `prefix`, started in [from, until).
int64_t SpanSelfTime(const cxlpool::obs::Tracer& tracer, const char* prefix,
                     Nanos from, Nanos until);

// Per-call costs of each layer's public entry point, replayed directly on
// the rig with the workload's own keys and sizes. sim_* are simulated ns,
// host_* host ns; 0 where the workload has no such layer.
struct Replay {
  double store_get_sim_ns = 0;
  double store_get_host_ns = 0;
  double store_set_sim_ns = 0;
  double forward_write_sim_ns = 0;
  double forward_write_host_ns = 0;
  double ssd_read_sim_ns = 0;
  double ssd_write_sim_ns = 0;
  double load_sim_ns = 0;
  double nt_store_sim_ns = 0;
  double flush_sim_ns = 0;
  double mem_access_host_ns = 0;
  double schedule_host_ns = 0;
};

// Replays against the running rack (store, forwarded MMIO, SSD). `ranks`
// are key ranks the workload's GETs used.
void ReplayLive(Rig& rig, const std::vector<uint32_t>& ranks, Replay* out);
// Replays that need a quiet loop (pool-line operations, ScheduleAt). Call
// after Rig::Shutdown().
void ReplayQuiet(Rig& rig, const std::vector<uint32_t>& sizes, Replay* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
