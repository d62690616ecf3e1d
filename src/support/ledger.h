// Per-run flight recorder: a bounded, thread-safe ledger of
// per-instance provenance records.
//
// Every batch engine (ODE ensembles, SPICE sweeps) can be handed a
// RunLedger through its options struct. At the points where the
// engines already flush their aggregate statistics — the end of an
// ensemble or a sweep — they append one Record per instance
// describing what actually happened to it: which execution tier ran
// it, at what lane width and in which block, how many steps were
// accepted and rejected, whether its compiled artifacts came out of
// the cache, and the final structured failure.
//
// The ledger is observation-only. It never steers execution, and a
// run with a ledger attached is bit-identical to one without
// (regression-tested in telemetry_test). The overhead contract
// matches the metrics registry: when no ledger is configured the cost
// at each instrumentation site is a null-pointer check; when one is
// configured the cost is one short critical section per *instance*
// (never per step).
//
// Records are bounded: once `capacity` records have been appended,
// further appends are counted in dropped() and discarded, so a
// runaway million-instance sweep cannot grow memory without bound.
//
// See docs/TELEMETRY.md for the exported JSON schema.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ark::telemetry {

class RunLedger {
public:
  // Which engine produced the record.
  enum class Workload : std::uint8_t { Ode, Spice };

  // Execution tier that actually ran the instance. Scalar/Lane/Jit
  // are the ODE ensemble tiers (Jit = a JIT native kernel served
  // the RHS, at any lane width); Sparse is the SPICE sweep's one
  // solve path.
  enum class Tier : std::uint8_t { Scalar, Lane, Sparse, Jit };

  // Whether the instance's compiled artifact (stepper factors, cached
  // system) was served from the ArtifactCache. None = the path does
  // not consult the cache.
  enum class CacheOutcome : std::uint8_t { None, Hit, Miss };

  struct Record {
    std::uint64_t runId = 0;       // beginRun() sequence number
    std::size_t index = 0;         // instance position in the batch
    Workload workload = Workload::Ode;
    Tier tier = Tier::Scalar;
    std::size_t laneWidth = 1;     // SoA width paid (1 for one-lane blocks)
    std::size_t lanes = 1;         // live instances sharing the block
    std::size_t blockId = 0;       // dispatch block / structure group
    std::size_t stepsAccepted = 0;
    std::size_t stepsRejected = 0;
    CacheOutcome cache = CacheOutcome::None;
    bool ok = true;
    std::string failureReason;     // structured reason name, "" when ok
    std::string failureMessage;    // human-readable detail, may be ""
  };

  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit RunLedger(std::size_t capacity = kDefaultCapacity);

  RunLedger(const RunLedger &) = delete;
  RunLedger &operator=(const RunLedger &) = delete;

  // Marks the start of a batch dispatch and returns its run id.
  // Successive runs recorded into one ledger (e.g. a cold and a warm
  // battery) are distinguished by this id.
  std::uint64_t beginRun(Workload workload, std::size_t instances);

  // Appends one record; drops (and counts) it when full. Thread-safe.
  void append(Record record);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t dropped() const;

  // Snapshot of the records appended so far.
  std::vector<Record> records() const;

  // Serialises the ledger:
  //   {"runs": N, "dropped": N, "records": [{...}, ...]}
  // Field names and value spellings are documented in
  // docs/TELEMETRY.md and covered by ledger_test.
  std::string json() const;

  void clear();

  // Stable lower-case spellings used by json() — exposed so tools and
  // tests agree on the vocabulary.
  static const char *name(Workload workload);
  static const char *name(Tier tier);
  static const char *name(CacheOutcome outcome);

private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t nextRunId_ = 1;
  std::uint64_t runs_ = 0;
  std::uint64_t dropped_ = 0;
};

} // namespace ark::telemetry
