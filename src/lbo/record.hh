/**
 * @file
 * One benchmark invocation's measurements, flattened for analysis
 * and caching.
 */

#ifndef DISTILL_LBO_RECORD_HH
#define DISTILL_LBO_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace distill::lbo
{

/**
 * Flat record of one (benchmark, collector, heap, invocation) run.
 */
struct RunRecord
{
    std::string bench;
    std::string collector;
    double heapFactor = 0.0; //!< 0 for Epsilon (machine-memory heap)
    std::uint64_t heapBytes = 0;
    std::uint64_t seed = 0;
    unsigned invocation = 0;

    bool completed = false;
    bool oom = false;

    /**
     * Structured outcome: "ok", "oom", "timeout" (virtual-time safety
     * limit), "oracle" (heap-graph oracle divergence), "crash"
     * (isolated child invocation died), "hang" (isolated child killed
     * by the wall-clock watchdog), or "error". Derived from the run's
     * failure state; see statusFor().
     */
    std::string status = "ok";

    /** Failure reason, sanitized for CSV (empty when status=="ok"). */
    std::string failReason;

    /** Fault-plan seed the run executed under (0 = no faults). */
    std::uint64_t faultSeed = 0;

    /** Schedule-perturbation seed (0 = vanilla round-robin). */
    std::uint64_t schedSeed = 0;

    /**
     * Deduplicatable failure signature for crash/hang cells:
     * "<SIGNAME>@<dominant flight-recorder label>" as parsed from the
     * child's sidecar report (empty for clean cells or when the child
     * died before writing one). distill_triage groups by this.
     */
    std::string signature;

    /** Path of the crash-forensics sidecar report, when one exists. */
    std::string sidecar;

    /**
     * Status-free diagnostic metadata, ";"-separated: conditions worth
     * recording that do NOT make the run a failure. Currently
     * "slow-teardown" (the child shipped a complete record but its
     * teardown outlived the watchdog deadline), "isolation-degraded"
     * (pipe()/fork() failed, so the cell ran unprotected in the sweep
     * process) and "spawn-retried=N" (the pool re-queued the cell N
     * times before a slot freed). Empty on a clean isolated run —
     * never compared, never parsed back into behavior.
     */
    std::string notes;

    double wallNs = 0;
    double cycles = 0;
    double stwWallNs = 0;
    double stwCycles = 0;
    double gcThreadCycles = 0;
    double mutatorCycles = 0;

    std::uint64_t pauses = 0;
    double pauseMeanNs = 0;
    double pauseP50Ns = 0;
    double pauseP90Ns = 0;
    double pauseP99Ns = 0;
    double pauseP9999Ns = 0;
    double pauseMaxNs = 0;

    double meteredP50Ns = 0;
    double meteredP90Ns = 0;
    double meteredP99Ns = 0;
    double meteredP9999Ns = 0;
    double meteredMaxNs = 0;
    double simpleP50Ns = 0;
    double simpleP99Ns = 0;
    double simpleP9999Ns = 0;

    double allocStallNs = 0;
    std::uint64_t degeneratedGcs = 0;
    std::uint64_t bytesAllocated = 0;

    /**
     * Per-phase GC-thread cycle attribution (the metrics ledger's
     * gcPhase[] rows, flattened). The seven named phases plus
     * gcGlueCycles (the declared GcPhase::None slack) plus the three
     * work-stealing sub-phase columns below (stealCycles,
     * stealSpinCycles, terminationSpinCycles) sum exactly to
     * gcThreadCycles — the conservation invariant RunMetrics enforces
     * at finalize(). Zero in legacy rows parsed from pre-phase CSVs.
     */
    double markCycles = 0;
    double evacCycles = 0;
    double updateRefsCycles = 0;
    double remsetRefineCycles = 0;
    double relocateCycles = 0;
    double sweepCycles = 0;
    double compactCycles = 0;
    double gcGlueCycles = 0;

    /**
     * Serving-mode (distill_serve) attempt accounting. Zero for
     * ordinary throughput/latency runs and legacy rows; a row is a
     * serving row iff serveIssued > 0. The four outcome columns obey
     * serveIssued == serveCompleted + serveShed + serveDeadline (the
     * broker's attempt-conservation invariant).
     */
    std::uint64_t serveSeed = 0;      //!< --serve-seed (arrival schedule)
    std::uint64_t serveIssued = 0;    //!< attempts entering the broker
    std::uint64_t serveCompleted = 0; //!< attempts finished
    std::uint64_t serveShed = 0;      //!< attempts shed (all reasons)
    std::uint64_t serveDeadline = 0;  //!< attempts past deadline
    std::uint64_t serveRetries = 0;   //!< retry attempts scheduled
    std::uint64_t serveRetryExhausted = 0; //!< requests out of budget

    /**
     * Fleet-recovery accounting (distill_serve --chaos). Lost and
     * hedge-cancelled extend the conservation identity to
     * serveIssued == serveCompleted + serveShed + serveDeadline +
     * serveLost + serveHedgeCancelled; restarts/failovers count the
     * supervisor actions taken on this instance. Zero everywhere
     * outside supervised fleet runs and in legacy rows.
     */
    std::uint64_t serveLost = 0;           //!< attempts lost at crash
    std::uint64_t serveHedgeCancelled = 0; //!< losing hedge attempts
    std::uint64_t serveRestarts = 0;       //!< supervisor restarts
    std::uint64_t serveFailovers = 0;      //!< arrivals routed away

    /**
     * Work-stealing tracer imbalance columns. The three cycle
     * columns are the gcPhase[Steal/StealSpin/Termination] ledger
     * rows (part of the conservation sum with the phase columns
     * above); the two counters tally victim-deque probes and
     * successful packet transfers across all gang dispatches. Zero
     * for serial runs (no gang) and in legacy rows.
     */
    double stealCycles = 0;
    double stealSpinCycles = 0;
    double terminationSpinCycles = 0;
    std::uint64_t stealAttempts = 0;
    std::uint64_t stealHits = 0;

    /**
     * Heap-sizing columns (heap/sizing.hh). sizingPolicy is the
     * *effective* policy the run executed ("fixed" when a requested
     * controller was forced inert — Epsilon, or no measured
     * min-heap); heapLimitBytes is the controller's final committed
     * limit (the configured heap under fixed). The footprint pair is
     * measured for every run; the grow/shrink counters tally
     * controller decisions and stay zero under fixed. Legacy rows
     * parse as policy "fixed" with zeroed columns.
     */
    std::string sizingPolicy = "fixed";
    std::uint64_t heapLimitBytes = 0;
    std::uint64_t peakCommittedBytes = 0;
    double avgCommittedBytes = 0;
    std::uint64_t sizingGrows = 0;
    std::uint64_t sizingShrinks = 0;

    /**
     * CSV layouts, oldest first. Each one appended columns to the one
     * before it, so every historical row is a prefix of the current
     * layout: Legacy (distill_runs_v3, before the failure columns),
     * Failure (status, failReason, fault/sched seeds), Forensics
     * (signature, sidecar), Notes, Phase (per-phase attribution),
     * Serve, Recovery (fleet recovery), Steal (work stealing) and
     * Sizing (heap sizing, the current layout).
     */
    enum class CsvLayout
    {
        Legacy,
        Failure,
        Forensics,
        Notes,
        Phase,
        Serve,
        Recovery,
        Steal,
        Sizing,
    };

    /** Field count of @p layout. */
    static std::size_t csvWidth(CsvLayout layout);

    /**
     * Field counts of every layout fromCsv() accepts, oldest first;
     * the last is the current layout toCsv() writes.
     */
    static const std::vector<std::size_t> &csvWidths();

    /** Serialize as one CSV line (matching csvHeader()). */
    std::string toCsv() const;

    /**
     * Parse one headerless CSV line in any layout of csvWidths();
     * returns false on any other width or a malformed field (a '+',
     * a '-' on an unsigned column, whitespace, trailing junk, a value
     * out of the column's range, a bool other than 0/1). Columns a
     * layout lacks keep their RunRecord{} defaults (status "ok",
     * sizing policy "fixed", zeros), except that Legacy rows derive
     * status from their completed/oom flags.
     */
    static bool fromCsv(const std::string &line, RunRecord &out);

    /** CSV header matching toCsv(). */
    static const char *csvHeader();

    /**
     * Canonical status string for a run outcome: "ok", "oom",
     * "timeout", "oracle", or "error".
     */
    static const char *statusFor(bool completed, bool oom,
                                 const std::string &failure_reason);

    /** Replace CSV-hostile characters in a failure reason. */
    static std::string sanitizeReason(const std::string &reason);

    /** Whether this record represents a failed invocation. */
    bool failed() const { return status != "ok"; }
};

} // namespace distill::lbo

#endif // DISTILL_LBO_RECORD_HH
