#include "src/sim/chaos.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/sim/logger.h"

namespace cxlpool::sim {

void ChaosInjector::AddFault(std::string name, std::function<void()> fail,
                             std::function<void()> repair) {
  std::string fault_class = name;
  AddFault(std::move(name), std::move(fault_class), std::move(fail),
           std::move(repair));
}

void ChaosInjector::AddFault(std::string name, std::string fault_class,
                             std::function<void()> fail,
                             std::function<void()> repair) {
  CXLPOOL_CHECK(!started_);
  CXLPOOL_CHECK(fail != nullptr);
  CXLPOOL_CHECK(repair != nullptr);
  faults_.push_back(Fault{std::move(name), std::move(fault_class),
                          std::move(fail), std::move(repair)});
}

void ChaosInjector::AddInvariant(std::string name, Invariant check) {
  CXLPOOL_CHECK(check != nullptr);
  invariants_.emplace_back(std::move(name), std::move(check));
}

void ChaosInjector::SetRecoveryProbe(std::function<bool()> probe) {
  recovery_probe_ = std::move(probe);
}

void ChaosInjector::ScheduleFail(Nanos at, size_t fault_index, Nanos outage) {
  CXLPOOL_CHECK(!started_);
  CXLPOOL_CHECK(fault_index < faults_.size());
  CXLPOOL_CHECK(outage > 0);
  if (!plan_.empty()) {
    CXLPOOL_CHECK(at >= plan_.back().at + plan_.back().outage);
  }
  plan_.push_back(Event{at, fault_index, outage});
}

void ChaosInjector::ScheduleRandom(Nanos from, Nanos until) {
  CXLPOOL_CHECK(!started_);
  CXLPOOL_CHECK(!faults_.empty());
  // The whole schedule is drawn here, before any event runs: next failure
  // time, victim, and outage length come from the seed alone, never from
  // runtime state. Events are serialized (next fail >= previous repair).
  Nanos t = plan_.empty() ? from : std::max(from, plan_.back().at + plan_.back().outage);
  for (;;) {
    t += static_cast<Nanos>(rng_.Exponential(static_cast<double>(options_.mean_interval)));
    if (t >= until) {
      break;
    }
    size_t fault = rng_.UniformInt(static_cast<uint64_t>(faults_.size()));
    Nanos outage = static_cast<Nanos>(
        rng_.Uniform(static_cast<double>(options_.min_outage),
                     static_cast<double>(options_.max_outage)));
    outage = std::max<Nanos>(outage, 1);
    plan_.push_back(Event{t, fault, outage});
    t += outage;
  }
}

void ChaosInjector::Start(StopToken& stop) {
  CXLPOOL_CHECK(!started_);
  CXLPOOL_CHECK(recovery_probe_ != nullptr);
  started_ = true;
  Spawn(RunPlan(stop));
}

void ChaosInjector::Note(const std::string& line) {
  trace_ += line;
  trace_ += '\n';
  if (event_hook_) {
    event_hook_(line);
  }
}

void ChaosInjector::CheckInvariants() {
  for (auto& [name, check] : invariants_) {
    std::string violation = check();
    if (!violation.empty()) {
      ++violations_;
      std::string entry = "t=" + std::to_string(loop_.now()) + " invariant " +
                          name + " violated: " + violation;
      violation_log_.push_back(entry);
      Note(entry);
      CXLPOOL_LOG(Warning) << "chaos: " << entry;
    }
  }
}

Task<> ChaosInjector::RunPlan(StopToken& stop) {
  for (const Event& ev : plan_) {
    if (stop.stopped()) {
      co_return;
    }
    if (loop_.now() < ev.at) {
      co_await WaitUntil(loop_, ev.at);
    }
    if (stop.stopped()) {
      co_return;
    }
    const Fault& fault = faults_[ev.fault];
    Nanos failed_at = loop_.now();
    fault.fail();
    ++injections_;
    ++injections_by_class_[fault.fault_class];
    Note("t=" + std::to_string(failed_at) + " fail " + fault.name +
         " outage=" + std::to_string(ev.outage));

    // Probe for recovery while the outage lasts: failover may restore
    // service before the fault is repaired.
    Nanos repair_at = failed_at + ev.outage;
    Nanos recovered_at = -1;
    while (loop_.now() < repair_at && !stop.stopped()) {
      if (recovered_at < 0 && recovery_probe_()) {
        recovered_at = loop_.now();
      }
      Nanos step = std::min(options_.probe_interval, repair_at - loop_.now());
      co_await Delay(loop_, step);
    }
    fault.repair();
    Note("t=" + std::to_string(loop_.now()) + " repair " + fault.name);

    // After repair, recovery must eventually come; a system that stays down
    // past probe_timeout has lost liveness.
    while (recovered_at < 0 && !stop.stopped()) {
      if (recovery_probe_()) {
        recovered_at = loop_.now();
        break;
      }
      if (loop_.now() - failed_at > options_.probe_timeout) {
        ++violations_;
        std::string entry = "t=" + std::to_string(loop_.now()) +
                            " no recovery from " + fault.name + " within " +
                            std::to_string(options_.probe_timeout) + "ns";
        violation_log_.push_back(entry);
        Note(entry);
        CXLPOOL_LOG(Warning) << "chaos: " << entry;
        break;
      }
      co_await Delay(loop_, options_.probe_interval);
    }
    if (recovered_at >= 0) {
      ++recoveries_;
      mttr_.Add(recovered_at - failed_at);
      mttr_by_class_[fault.fault_class].Add(recovered_at - failed_at);
      Note("t=" + std::to_string(loop_.now()) + " recovered " + fault.name +
           " mttr=" + std::to_string(recovered_at - failed_at));
    }
    CheckInvariants();
  }
}

std::string ChaosInjector::TraceDigest() const {
  // FNV-1a over the executed trace plus headline counters: cheap, stable,
  // and any cross-run divergence (ordering, timing, outcome) changes it.
  uint64_t h = Fnv1a(trace_);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(hex) + " injections=" + std::to_string(injections_) +
         " recoveries=" + std::to_string(recoveries_) +
         " violations=" + std::to_string(violations_);
}

}  // namespace cxlpool::sim
