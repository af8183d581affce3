// Open-loop request generator for the benchmark.
//
// The whole arrival schedule of a window is drawn from the seed before the
// first send (Poisson arrivals, op mix, key ranks), so the offered rate is
// exactly what was asked for no matter how the system under test behaves.
// Every request is timed from its due time, not from when it went out, so
// a stalled sender shows up as latency on every request behind it. A
// request counts as failed when no good reply arrives by its deadline,
// including replies that land after the window has ended.
//
// Two request kinds share the machinery:
//   echo — a 64 B datagram whose payload the server must return verbatim;
//   kv   — GET/SET/DELETE frames in the public kv wire codec. Values are
//          kv::LoadGen::MakeValue(rank, version), and every GET reply is
//          checked for pattern, rank and freshness (see CheckGet).
#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kv/loadgen.h"
#include "src/obs/trace.h"
#include "src/stack/udp.h"

namespace perfbench {

using cxlpool::Nanos;

enum class OpKind : uint8_t { kEcho, kGet, kSet, kDelete };

struct Arrival {
  Nanos due = 0;
  OpKind kind = OpKind::kEcho;
  bool aux_key = false;  // kv: key from the small DELETE range
  uint32_t rank = 0;     // kv: key rank
};

// KV traffic mix. GET and SET go to the preloaded main key space; DELETE
// goes to a disjoint range of 64 keys that one SET in five also writes, so
// deletes find something to remove.
struct KvMix {
  uint64_t keys = 0;
  double zipf_theta = 0.99;
  double get = 0.88;
  double set = 0.10;  // remainder is DELETE
};

// Poisson arrivals at `rate` per second with due times in
// [start, start + duration). `mix` null = echo requests.
std::vector<Arrival> DrawSchedule(uint64_t seed, double rate, Nanos start,
                                  Nanos duration, const KvMix* mix);

std::string MainKey(uint64_t rank);
std::string AuxKey(uint64_t rank);

struct WindowStats {
  uint64_t attempted = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t timeouts = 0;       // no reply by the deadline (incl. never)
  uint64_t late_replies = 0;   // reply arrived after the deadline
  uint64_t send_errors = 0;
  uint64_t error_replies = 0;  // kOverloaded, kDeadlineExceeded, ...
  uint64_t integrity_failures = 0;
  uint64_t late_sends = 0;     // sends that started after their due time
  // One entry per attempted request, due time -> good reply. Failed
  // requests are entered at the op deadline: they missed every limit.
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> tx_sim_ns;  // sim time spent inside SendTo
};

class OpenLoopClient {
 public:
  struct Config {
    cxlpool::netsim::MacAddr server_mac = 0;
    uint16_t server_port = 0;
    int senders = 4;  // sender coroutines = client application cores
    Nanos op_deadline = 300 * cxlpool::kMicrosecond;
    cxlpool::kv::LoadGenConfig values;  // value sizes for SET (64..1024 B)
    cxlpool::obs::Tracer* tracer = nullptr;  // bench.* spans when set
    uint32_t host = 0;                       // span host label
  };

  // `mix` null = echo client. The socket must outlive the client.
  OpenLoopClient(cxlpool::stack::UdpSocket* sock, Config config,
                 const KvMix* mix);
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // Spawns the reply receiver.
  void Start(cxlpool::sim::StopToken& stop);

  // Marks every main key as holding version 1, written at `now` (the
  // rig preloads the store with exactly those values).
  void NotePreloaded(Nanos now);

  // Spawns the senders for `schedule`; Finish() closes the window.
  void Begin(std::vector<Arrival> schedule);
  // Requests due by `t` that are still waiting for a reply and whose
  // deadline has not passed.
  uint64_t Outstanding(Nanos t) const;
  uint64_t settled() const { return settled_; }
  bool senders_done() const { return active_senders_ == 0; }
  Nanos last_deadline() const;
  // Fails every request still unanswered and returns the window's stats.
  WindowStats Finish();

 private:
  struct SetRecord {
    Nanos sent = 0;
    Nanos acked = kNever;  // sim time of the kOk reply; kNever if none
  };
  struct KeyState {
    std::vector<SetRecord> sets;  // sets[v - 1] wrote version v
    Nanos newest_acked_send = -1;
  };
  struct Request {
    Arrival arrival;
    Nanos deadline = 0;
    uint32_t version = 0;       // SET: version written
    Nanos fresh_floor = -1;     // GET: newest acked SET send at GET send
    bool settled = false;
    cxlpool::obs::Span span;
  };
  static constexpr Nanos kNever = INT64_MAX;

  cxlpool::sim::Task<> Sender(int index, uint64_t window);
  cxlpool::sim::Task<> Receiver(cxlpool::sim::StopToken& stop);
  std::vector<std::byte> EchoPayload(uint64_t id) const;
  void OnReply(std::span<const std::byte> payload);
  void Settle(Request& r, bool ok, Nanos now);
  // Counts a wrong output and reports the first few on stderr.
  void Integrity(uint64_t id, const char* what);
  // True when a GET reply value is intact and not older than allowed.
  bool CheckGet(const Request& r, std::span<const std::byte> value) const;

  cxlpool::stack::UdpSocket* sock_;
  cxlpool::sim::EventLoop& loop_;
  Config config_;
  bool kv_;
  std::vector<KeyState> keys_;

  std::vector<Request> reqs_;
  uint64_t window_ = 0;
  uint64_t base_id_ = 1;  // request id of reqs_[0]
  uint64_t next_id_ = 1;
  uint64_t settled_ = 0;
  int active_senders_ = 0;
  WindowStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
