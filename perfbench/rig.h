// Workload definitions and the simulated pod each one runs on.
//
// A Rig is one complete, single-threaded simulation: its own event loop,
// observability bundle, rack, UDP endpoints, the server application (echo
// responders or a kv node with its store) and the open-loop client. The
// benchmark only calls public entry points of the simulator; everything
// here is assembly.
#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/openloop.h"
#include "src/core/rack.h"
#include "src/kv/node.h"
#include "src/kv/store.h"
#include "src/obs/obs.h"
#include "src/stack/buffer_pool.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool kv = false;
  // Load.
  double op_rate = 0;           // operating rate, requests per second
  std::vector<double> ladder;   // offered rates, ascending
  Nanos slo_p99 = 0;
  Nanos op_deadline = 0;
  Nanos warmup = 0;             // sim time at the operating rate before timing
  Nanos rung = 0;               // sim time per ladder rung
  // Operating-phase sim time per host second of --seconds. The phase is
  // sized from this constant, never from a clock, so it is the same on
  // every run of a seed.
  Nanos op_sim_per_host_s = 0;
  int client_senders = 4;
  int client_workers = 4;
  int server_workers = 4;
  // kv only.
  KvMix mix;
  uint32_t value_buffers = 0;
  bool remote_ssd = false;  // cold tier on a pooled SSD homed on host 2
};

// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr int kServerHost = 0;
inline constexpr int kClientHost = 1;
inline constexpr int kSsdHost = 2;

struct Endpoint {
  cxlpool::core::Rack::VirtualNicHandle nic;
  std::unique_ptr<cxlpool::stack::BufferPool> pool;
  std::unique_ptr<cxlpool::stack::UdpStack> stack;
};

class Rig {
 public:
  // Builds the pod, brings up devices and the server, and preloads every
  // kv key. `tracing` turns on the rack tracer and bench.* spans.
  Rig(const WorkloadSpec& spec, bool tracing);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Stops every actor, drains the loop and checks that no dirty pool line
  // was lost. Idempotent; the destructor calls it.
  void Shutdown();

  const WorkloadSpec& spec;
  cxlpool::sim::EventLoop loop;
  cxlpool::obs::Observability obs;
  std::unique_ptr<cxlpool::core::Rack> rack;
  std::unique_ptr<cxlpool::devices::Ssd> ssd;
  Endpoint server;
  Endpoint client;
  std::unique_ptr<cxlpool::core::VirtualSsd> vssd;
  std::unique_ptr<cxlpool::stack::BufferPool> values;
  std::unique_ptr<cxlpool::kv::Store> store;
  std::unique_ptr<cxlpool::kv::KvNode> node;
  std::unique_ptr<OpenLoopClient> gen;
  // Echo responder time from Recv return to SendTo return (udp_echo).
  std::vector<int64_t> server_sim_ns;
  uint64_t lost_dirty_lines = 0;
  // Bytes of the store's SSD region; replays use the space above it.
  static constexpr uint64_t kStoreSsdBytes = 8 * cxlpool::kMiB;

 private:
  bool shut_down_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_
