#include "support/ledger.h"

#include <sstream>
#include <utility>

#include "support/telemetry.h"

namespace ark::telemetry {

RunLedger::RunLedger(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t RunLedger::beginRun(Workload, std::size_t) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++runs_;
  return nextRunId_++;
}

void RunLedger::append(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

std::size_t RunLedger::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::uint64_t RunLedger::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<RunLedger::Record> RunLedger::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void RunLedger::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  dropped_ = 0;
}

const char *RunLedger::name(Workload workload) {
  switch (workload) {
  case Workload::Ode: return "ode";
  case Workload::Spice: return "spice";
  }
  return "unknown";
}

const char *RunLedger::name(Tier tier) {
  switch (tier) {
  case Tier::Scalar: return "scalar";
  case Tier::Lane: return "lane";
  case Tier::Sparse: return "sparse";
  case Tier::Jit: return "jit";
  }
  return "unknown";
}

const char *RunLedger::name(CacheOutcome outcome) {
  switch (outcome) {
  case CacheOutcome::None: return "none";
  case CacheOutcome::Hit: return "hit";
  case CacheOutcome::Miss: return "miss";
  }
  return "unknown";
}

std::string RunLedger::json() const {
  std::vector<Record> copy;
  std::uint64_t runs = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = records_;
    runs = runs_;
    dropped = dropped_;
  }
  std::ostringstream out;
  out << "{\"runs\": " << runs << ", \"dropped\": " << dropped
      << ", \"records\": [";
  bool first = true;
  for (const Record &r : copy) {
    if (!first)
      out << ", ";
    first = false;
    out << "{\"run\": " << r.runId << ", \"index\": " << r.index
        << ", \"workload\": \"" << name(r.workload) << "\""
        << ", \"tier\": \"" << name(r.tier) << "\""
        << ", \"lane_width\": " << r.laneWidth
        << ", \"lanes\": " << r.lanes << ", \"block\": " << r.blockId
        << ", \"steps_accepted\": " << r.stepsAccepted
        << ", \"steps_rejected\": " << r.stepsRejected
        << ", \"cache\": \"" << name(r.cache) << "\""
        << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.ok) {
      out << ", \"failure_reason\": \""
          << detail::escapeJson(r.failureReason)
          << "\", \"failure_message\": \""
          << detail::escapeJson(r.failureMessage) << "\"";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

} // namespace ark::telemetry
