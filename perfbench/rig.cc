#include "perfbench/rig.h"

#include "src/common/check.h"
#include "src/sim/task.h"

namespace perfbench {

using namespace cxlpool;
using core::Rack;
using core::VirtualNic;
using stack::BufferPool;
using stack::Placement;
using stack::UdpStack;

namespace {

constexpr uint16_t kServerPort = 11211;
constexpr uint16_t kClientPort = 9000;
constexpr uint32_t kBufBytes = 2048;
constexpr uint32_t kStackBuffers = 2048;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // Figure 3: UDP echo, server TX/RX buffers in the pool, rings local.
  WorkloadSpec echo;
  echo.name = "udp_echo";
  echo.op_rate = 3.0e6;
  echo.ladder = {2.5e6, 3.0e6, 3.5e6, 4.0e6, 4.5e6};
  echo.slo_p99 = 20 * kMicrosecond;
  echo.op_deadline = 1 * kMillisecond;
  echo.warmup = 200 * kMicrosecond;
  echo.rung = 16 * kMillisecond;
  echo.op_sim_per_host_s = 6 * kMillisecond;
  echo.client_senders = 8;
  echo.client_workers = 8;
  echo.server_workers = 8;
  specs.push_back(echo);

  // Pooled memcached tenant, read path: every key fits the value pool.
  WorkloadSpec hot;
  hot.name = "kv_hot";
  hot.kv = true;
  hot.op_rate = 1.5e6;
  hot.ladder = {1.2e6, 1.8e6, 2.1e6, 2.5e6, 2.9e6};
  hot.slo_p99 = 24 * kMicrosecond;
  hot.op_deadline = 300 * kMicrosecond;
  hot.warmup = 500 * kMicrosecond;
  hot.rung = 16 * kMillisecond;
  hot.op_sim_per_host_s = 7 * kMillisecond;
  hot.client_senders = 8;
  hot.client_workers = 4;
  hot.server_workers = 4;
  hot.mix = KvMix{.keys = 1024, .zipf_theta = 0.99, .get = 0.88, .set = 0.10};
  hot.value_buffers = 1536;
  specs.push_back(hot);

  // Same KV layer, write-heavy and ten times larger than the value pool:
  // the cold tail lives on a pooled SSD reached over forwarded MMIO.
  WorkloadSpec spill;
  spill.name = "kv_spill";
  spill.kv = true;
  spill.op_rate = 30e3;
  spill.ladder = {15e3, 25e3, 35e3, 45e3, 55e3, 65e3, 80e3};
  spill.slo_p99 = 250 * kMicrosecond;
  spill.op_deadline = 300 * kMicrosecond;
  spill.warmup = 2 * kMillisecond;
  spill.rung = 40 * kMillisecond;
  spill.op_sim_per_host_s = 40 * kMillisecond;
  spill.client_senders = 4;
  spill.client_workers = 4;
  spill.server_workers = 4;
  spill.mix = KvMix{.keys = 2560, .zipf_theta = 0.6, .get = 0.5, .set = 0.5};
  spill.value_buffers = 256;
  spill.remote_ssd = true;
  specs.push_back(spill);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

// Pooled-NIC UDP endpoint. `buffers` places the stack's TX/RX buffers.
sim::Task<> MakeEndpoint(Rack& rack, int host, bool rings_in_cxl,
                         Placement buffers, int workers, Endpoint* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = rings_in_cxl;
  vc.tx_entries = 1024;
  vc.rx_entries = 1024;
  vc.rx_doorbell_batch = 8;
  auto handle = co_await rack.CreateVirtualNic(HostId(host), vc);
  CXLPOOL_CHECK_OK(handle.status());
  out->nic = std::move(*handle);
  auto pool = BufferPool::Create(rack.pod().host(host), buffers, kStackBuffers,
                                 kBufBytes);
  CXLPOOL_CHECK_OK(pool.status());
  out->pool = std::move(*pool);
  UdpStack::Config sc;
  sc.rx_buffers = 256;
  sc.worker_cores = workers;
  out->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, sc);
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
}

// One echo responder; the server runs several on one socket.
sim::Task<> EchoResponder(stack::UdpSocket* sock, sim::EventLoop& loop,
                          sim::StopToken& stop, std::vector<int64_t>* took) {
  while (!stop.stopped()) {
    auto d = co_await sock->Recv(loop.now() + 50 * kMicrosecond);
    if (!d.ok()) {
      continue;
    }
    Nanos t0 = loop.now();
    Status st = co_await sock->SendTo(d->src_mac, d->src_port, d->payload);
    if (st.ok()) {
      took->push_back(loop.now() - t0);
    }
  }
}

sim::Task<> PreloadPart(kv::Store* store, uint64_t first, uint64_t step,
                        uint64_t keys, const kv::LoadGenConfig& values,
                        sim::EventLoop& loop, uint64_t* remaining) {
  for (uint64_t rank = first; rank < keys; rank += step) {
    Status st = co_await store->Set(MainKey(rank),
                                    kv::LoadGen::MakeValue(rank, 1, values),
                                    loop.now() + 50 * kMillisecond);
    CXLPOOL_CHECK_OK(st);
  }
  --*remaining;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : Specs()) {
    out.push_back(s.name);
  }
  return out;
}

Rig::Rig(const WorkloadSpec& workload, bool tracing)
    : spec(workload), obs(obs::Observability::Options{.tracing = tracing}) {
  core::RackConfig rc;
  rc.pod.num_hosts = spec.remote_ssd ? 3 : 2;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 32 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.obs = &obs;
  rack = std::make_unique<Rack>(loop, rc);
  if (spec.remote_ssd) {
    // Homed on a third host and bound by hand, so the server reaches its
    // doorbells only through forwarded MMIO.
    devices::SsdConfig sc;
    sc.capacity_bytes = 16 * kMiB;
    ssd = std::make_unique<devices::Ssd>(PcieDeviceId(500), "pooled-ssd", loop, sc);
    ssd->AttachTo(&rack->pod().host(kSsdHost));
    rack->orchestrator().RegisterDevice(HostId(kSsdHost), ssd.get(),
                                        core::DeviceType::kSsd);
  }
  rack->Start();

  bool rings_in_cxl = spec.kv;  // udp_echo keeps Figure 3's local rings
  sim::RunBlocking(loop, MakeEndpoint(*rack, kServerHost, rings_in_cxl,
                                      Placement::kCxlPool, spec.server_workers,
                                      &server));
  sim::RunBlocking(loop, MakeEndpoint(*rack, kClientHost, rings_in_cxl,
                                      spec.kv ? Placement::kCxlPool
                                              : Placement::kLocalDram,
                                      spec.client_workers, &client));

  OpenLoopClient::Config gc;
  gc.server_mac = server.stack->mac();
  gc.server_port = kServerPort;
  gc.senders = spec.client_senders;
  gc.op_deadline = spec.op_deadline;
  gc.tracer = obs.tracer();
  gc.host = kClientHost;

  cxl::HostAdapter& srv_host = rack->pod().host(kServerHost);
  if (!spec.kv) {
    stack::UdpSocket* sock = server.stack->Bind(kServerPort).value();
    for (int i = 0; i < 8; ++i) {
      sim::Spawn(EchoResponder(sock, loop, rack->stop_token(), &server_sim_ns));
    }
  } else {
    if (spec.remote_ssd) {
      auto path = rack->orchestrator().MakeMmioPath(HostId(kServerHost), ssd->id());
      CXLPOOL_CHECK_OK(path.status());
      core::VirtualSsd::Config vc;
      vc.rings_in_cxl = true;
      vc.tracer = obs.tracer();
      auto v = sim::RunBlocking(
          loop, core::VirtualSsd::Create(srv_host, std::move(*path), vc));
      CXLPOOL_CHECK_OK(v.status());
      vssd = std::move(*v);
    }
    auto pool = BufferPool::Create(srv_host, Placement::kCxlPool,
                                   spec.value_buffers, kBufBytes);
    CXLPOOL_CHECK_OK(pool.status());
    values = std::move(*pool);
    store = std::make_unique<kv::Store>(values.get(), vssd.get(), kStoreSsdBytes,
                                        kv::StoreConfig{}, &obs.metrics());
    kv::NodeConfig nc;
    nc.port = kServerPort;
    nc.workers = spec.server_workers;
    nc.max_inflight = 128;
    node = std::make_unique<kv::KvNode>(server.stack.get(), store.get(), nc,
                                        &obs.metrics());
    CXLPOOL_CHECK_OK(node->Start(rack->stop_token()));
  }

  stack::UdpSocket* cli = client.stack->Bind(kClientPort).value();
  gen = std::make_unique<OpenLoopClient>(cli, gc, spec.kv ? &spec.mix : nullptr);
  gen->Start(rack->stop_token());

  if (spec.kv) {
    constexpr uint64_t kParallel = 8;
    uint64_t remaining = kParallel;
    for (uint64_t p = 0; p < kParallel; ++p) {
      sim::Spawn(PreloadPart(store.get(), p, kParallel, spec.mix.keys,
                             gc.values, loop, &remaining));
    }
    while (remaining > 0) {
      CXLPOOL_CHECK(!loop.empty());
      loop.RunFor(10 * kMicrosecond);
    }
    gen->NotePreloaded(loop.now());
  }
}

void Rig::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  rack->Shutdown();
  loop.RunFor(1 * kMillisecond);
  lost_dirty_lines = rack->pod().TotalLostDirtyLines();
}

Rig::~Rig() { Shutdown(); }

}  // namespace perfbench
