#include "perfbench/openloop.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"
#include "src/kv/wire.h"
#include "src/msg/wire.h"
#include "src/sim/random.h"

namespace perfbench {

using namespace cxlpool;

namespace {

constexpr uint32_t kClientId = 1;
constexpr size_t kEchoBytes = 64;
constexpr uint64_t kAuxKeys = 64;
constexpr double kAuxSetShare = 0.2;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::vector<Arrival> DrawSchedule(uint64_t seed, double rate, Nanos start,
                                  Nanos duration, const KvMix* mix) {
  CXLPOOL_CHECK(rate > 0 && duration > 0);
  sim::Rng rng(seed);
  std::unique_ptr<sim::ZipfianSampler> zipf;
  if (mix != nullptr) {
    zipf = std::make_unique<sim::ZipfianSampler>(mix->keys, mix->zipf_theta);
  }
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate * static_cast<double>(duration) / 1e9 * 1.1) + 16);
  const double mean_gap = 1e9 / rate;
  double t = static_cast<double>(start);
  for (;;) {
    t += rng.Exponential(mean_gap);
    Nanos due = static_cast<Nanos>(t);
    if (due >= start + duration) {
      break;
    }
    Arrival a;
    a.due = due;
    if (mix != nullptr) {
      double dice = rng.Uniform();
      if (dice < mix->get) {
        a.kind = OpKind::kGet;
      } else if (dice < mix->get + mix->set) {
        a.kind = OpKind::kSet;
        a.aux_key = rng.Bernoulli(kAuxSetShare);
      } else {
        a.kind = OpKind::kDelete;
        a.aux_key = true;
      }
      a.rank = static_cast<uint32_t>(a.aux_key ? rng.UniformInt(kAuxKeys)
                                               : zipf->Sample(rng));
    }
    out.push_back(a);
  }
  return out;
}

std::string MainKey(uint64_t rank) { return std::string("k").append(std::to_string(rank)); }
std::string AuxKey(uint64_t rank) { return std::string("d").append(std::to_string(rank)); }

OpenLoopClient::OpenLoopClient(stack::UdpSocket* sock, Config config,
                               const KvMix* mix)
    : sock_(sock), loop_(sock->Loop()), config_(config), kv_(mix != nullptr) {
  if (kv_) {
    keys_.resize(mix->keys);
  }
}

void OpenLoopClient::Start(sim::StopToken& stop) { sim::Spawn(Receiver(stop)); }

void OpenLoopClient::NotePreloaded(Nanos now) {
  for (KeyState& k : keys_) {
    k.sets.assign(1, SetRecord{now, now});
    k.newest_acked_send = now;
  }
}

void OpenLoopClient::Begin(std::vector<Arrival> schedule) {
  CXLPOOL_CHECK(active_senders_ == 0);
  ++window_;
  reqs_.clear();
  reqs_.resize(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    reqs_[i].arrival = schedule[i];
    reqs_[i].deadline = schedule[i].due + config_.op_deadline;
  }
  base_id_ = next_id_;
  next_id_ += reqs_.size();
  settled_ = 0;
  stats_ = WindowStats{};
  stats_.attempted = reqs_.size();
  stats_.latency_ns.reserve(reqs_.size());
  stats_.tx_sim_ns.reserve(reqs_.size());
  for (int s = 0; s < config_.senders; ++s) {
    sim::Spawn(Sender(s, window_));
  }
}

uint64_t OpenLoopClient::Outstanding(Nanos t) const {
  uint64_t n = 0;
  for (const Request& r : reqs_) {
    if (r.arrival.due > t) {
      break;  // schedule is sorted by due time
    }
    if (!r.settled && r.deadline > t) {
      ++n;
    }
  }
  return n;
}

Nanos OpenLoopClient::last_deadline() const {
  return reqs_.empty() ? loop_.now() : reqs_.back().deadline;
}

WindowStats OpenLoopClient::Finish() {
  CXLPOOL_CHECK(active_senders_ == 0);
  Nanos now = loop_.now();
  for (Request& r : reqs_) {
    if (!r.settled) {
      ++stats_.timeouts;
      Settle(r, /*ok=*/false, now);
    }
  }
  ++window_;  // replies still in flight are now strays
  reqs_.clear();
  return std::move(stats_);
}

std::vector<std::byte> OpenLoopClient::EchoPayload(uint64_t id) const {
  std::vector<std::byte> p(kEchoBytes);
  msg::wire::PutU64(p.data(), id);
  uint64_t m = Mix64(id);
  for (size_t i = 8; i < p.size(); ++i) {
    p[i] = static_cast<std::byte>((m >> ((i % 8) * 8)) + i);
  }
  return p;
}

sim::Task<> OpenLoopClient::Sender(int index, uint64_t window) {
  ++active_senders_;
  for (size_t i = static_cast<size_t>(index); i < reqs_.size();
       i += static_cast<size_t>(config_.senders)) {
    Nanos due = reqs_[i].arrival.due;
    if (loop_.now() < due) {
      co_await sim::WaitUntil(loop_, due);
    }
    if (window != window_) {
      break;
    }
    Request& r = reqs_[i];
    Nanos t0 = loop_.now();
    if (t0 > due) {
      ++stats_.late_sends;
    }
    uint64_t id = base_id_ + i;
    std::vector<std::byte> payload;
    if (!kv_) {
      payload = EchoPayload(id);
    } else {
      kv::Request req;
      req.client_id = kClientId;
      req.seq = id;
      req.deadline = r.deadline;
      const Arrival& a = r.arrival;
      req.key = a.aux_key ? AuxKey(a.rank) : MainKey(a.rank);
      switch (a.kind) {
        case OpKind::kGet:
          req.opcode = kv::Opcode::kGet;
          r.fresh_floor = keys_[a.rank].newest_acked_send;
          break;
        case OpKind::kSet:
          req.opcode = kv::Opcode::kSet;
          if (a.aux_key) {
            req.value = kv::LoadGen::MakeValue(a.rank, 1, config_.values);
          } else {
            KeyState& k = keys_[a.rank];
            k.sets.push_back(SetRecord{t0, kNever});
            r.version = static_cast<uint32_t>(k.sets.size());
            req.value = kv::LoadGen::MakeValue(a.rank, r.version, config_.values);
          }
          break;
        case OpKind::kDelete:
        case OpKind::kEcho:
          req.opcode = kv::Opcode::kDelete;
          break;
      }
      payload = kv::EncodeRequest(req);
    }
    if (config_.tracer != nullptr) {
      r.span = config_.tracer->StartTrace("bench.request", config_.host, due);
    }
    obs::Span send = obs::MaybeStartSpan(config_.tracer, "bench.send",
                                         config_.host, r.span.context(), t0);
    Status st =
        co_await sock_->SendTo(config_.server_mac, config_.server_port, payload);
    send.End(loop_.now());
    if (window != window_) {
      break;
    }
    stats_.tx_sim_ns.push_back(loop_.now() - t0);
    Request& again = reqs_[i];
    if (!st.ok() && !again.settled) {
      ++stats_.send_errors;
      Settle(again, /*ok=*/false, loop_.now());
    }
  }
  --active_senders_;
}

sim::Task<> OpenLoopClient::Receiver(sim::StopToken& stop) {
  while (!stop.stopped()) {
    auto d = co_await sock_->Recv(loop_.now() + 50 * kMicrosecond);
    if (d.ok()) {
      OnReply(d->payload);
    }
  }
}

void OpenLoopClient::OnReply(std::span<const std::byte> payload) {
  Nanos now = loop_.now();
  uint64_t id = 0;
  kv::Response rsp;
  if (!kv_) {
    if (payload.size() < 8) {
      Integrity(0, "runt echo reply");
      return;
    }
    id = msg::wire::GetU64(payload.data());
  } else {
    auto decoded = kv::DecodeResponse(payload);
    if (!decoded.ok()) {
      Integrity(0, "undecodable kv reply");
      return;
    }
    rsp = std::move(*decoded);
    id = rsp.seq;
  }
  if (id < base_id_ || id - base_id_ >= reqs_.size()) {
    return;  // reply to an earlier window's request, already failed there
  }
  Request& r = reqs_[id - base_id_];
  if (r.settled) {
    return;
  }
  bool ok = false;
  if (!kv_) {
    std::vector<std::byte> want = EchoPayload(id);
    ok = std::equal(payload.begin(), payload.end(), want.begin(), want.end());
    if (!ok) {
      Integrity(id, "echo payload differs from what was sent");
    }
  } else {
    const Arrival& a = r.arrival;
    switch (a.kind) {
      case OpKind::kGet:
        if (rsp.status == kv::WireStatus::kOk) {
          ok = CheckGet(r, rsp.value);
          if (!ok) {
            Integrity(id, "GET returned a torn, foreign or stale value");
          }
        } else if (rsp.status == kv::WireStatus::kNotFound) {
          Integrity(id, "GET of a preloaded key returned kNotFound");
        } else {
          ++stats_.error_replies;
        }
        break;
      case OpKind::kSet:
        ok = rsp.status == kv::WireStatus::kOk;
        if (!ok) {
          ++stats_.error_replies;
        } else if (!a.aux_key) {
          KeyState& k = keys_[a.rank];
          SetRecord& rec = k.sets[r.version - 1];
          rec.acked = now;
          k.newest_acked_send = std::max(k.newest_acked_send, rec.sent);
        }
        break;
      case OpKind::kDelete:
      case OpKind::kEcho:
        ok = rsp.status == kv::WireStatus::kOk ||
             rsp.status == kv::WireStatus::kNotFound;
        if (!ok) {
          ++stats_.error_replies;
        }
        break;
    }
  }
  if (ok && now > r.deadline) {
    ++stats_.late_replies;
    ok = false;
  }
  Settle(r, ok, now);
}

bool OpenLoopClient::CheckGet(const Request& r,
                              std::span<const std::byte> value) const {
  uint64_t rank = 0;
  uint64_t version = 0;
  if (!kv::LoadGen::CheckValue(value, &rank, &version) ||
      rank != r.arrival.rank) {
    return false;
  }
  const KeyState& k = keys_[r.arrival.rank];
  if (version < 1 || version > k.sets.size()) {
    return false;  // never written
  }
  // Register semantics: version v is stale iff some SET that was acked
  // before this GET went out was itself sent after v's SET was acked.
  // fresh_floor is the newest such send time, so v must have been acked
  // no earlier than that (or not acked at all: its outcome is unknown).
  return k.sets[version - 1].acked >= r.fresh_floor;
}

void OpenLoopClient::Integrity(uint64_t id, const char* what) {
  constexpr uint64_t kReported = 5;
  if (stats_.integrity_failures++ < kReported) {
    std::fprintf(stderr, "integrity failure at %" PRId64 " ns, request %" PRIu64
                 ": %s\n", loop_.now(), id, what);
  }
}

void OpenLoopClient::Settle(Request& r, bool ok, Nanos now) {
  r.settled = true;
  ++settled_;
  if (ok) {
    ++stats_.served;
    stats_.latency_ns.push_back(now - r.arrival.due);
  } else {
    ++stats_.failed;
    stats_.latency_ns.push_back(config_.op_deadline);
  }
  r.span.End(now);
}

}  // namespace perfbench
