/**
 * @file
 * GC measurement agent (the JVMTI-agent analogue).
 *
 * The paper instruments OpenJDK with a JVMTI agent that receives
 * callbacks when a stop-the-world pause starts and ends, and reads
 * per-thread cycle counters from the PMU (paper §IV-A(b)). GcAgent
 * exposes exactly that interface to the simulated runtime: collectors
 * call pauseBegin()/pauseEnd() around STW pauses, and the agent
 * snapshots the scheduler's wall clock and per-kind cycle totals to
 * attribute cost inside vs outside pauses, and to GC threads vs
 * mutator threads.
 */

#ifndef DISTILL_METRICS_AGENT_HH
#define DISTILL_METRICS_AGENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/histogram.hh"
#include "base/types.hh"
#include "metrics/cost.hh"
#include "metrics/phase.hh"

namespace distill::sim
{
class Scheduler;
} // namespace distill::sim

namespace distill::metrics
{

/** Categories of stop-the-world pause, for reporting. */
enum class PauseKind
{
    YoungGc,      //!< young/minor collection
    FullGc,       //!< full-heap STW collection
    InitialMark,  //!< concurrent cycle: start-of-mark pause
    FinalMark,    //!< concurrent cycle: end-of-mark pause
    EvacPause,    //!< G1 (mixed/young) evacuation pause
    FinalPause,   //!< concurrent copy: phase-flip pauses
    Degenerated,  //!< Shenandoah degenerated (STW rescue) collection
};

/** Human-readable pause-kind name. */
const char *pauseKindName(PauseKind kind);

/**
 * One entry of the GC event log (the analogue of -Xlog:gc). The paper
 * diagnoses Shenandoah's pathological modes by reading GC logs
 * (§IV-C(d)); RunMetrics keeps a bounded log so the same analysis is
 * possible here.
 */
struct GcLogEvent
{
    /** Event label: a pause kind, "concurrent-cycle",
     *  "degenerated-cycle", "alloc-stall", or a phase span
     *  ("phase:mark", ...). */
    const char *what = "";

    /** Event start, virtual nanoseconds. */
    Ticks startNs = 0;

    /** Event duration in nanoseconds (0 where not applicable). */
    Ticks durationNs = 0;
};

/**
 * Measurements collected over one benchmark invocation.
 */
struct RunMetrics
{
    /** Whole-run totals. */
    CostVector total;

    /** Cost inside STW pauses (whole process). */
    CostVector stw;

    /** Cycles executed by GC-kind threads, in and out of pauses. */
    Cycles gcThreadCycles = 0;

    /** Cycles executed by mutator-kind threads. */
    Cycles mutatorCycles = 0;

    /** Distribution of STW pause durations (ns). */
    Histogram pauseNs;

    /**
     * Request latency distributions (ns) for latency-sensitive
     * workloads (see wl::RequestClock). "Simple" ignores queuing
     * delay; "metered" includes it — the paper's preferred measure.
     */
    Histogram simpleLatencyNs;
    Histogram meteredLatencyNs;

    /**
     * Number of pauses by coarse class. Every pause lands in exactly
     * one class (concurrentPauses counts the InitialMark / FinalMark /
     * FinalPause brackets of concurrent cycles), so
     * youngPauses + fullPauses + concurrentPauses == pauseNs.count().
     */
    std::uint64_t youngPauses = 0;
    std::uint64_t fullPauses = 0;
    std::uint64_t concurrentPauses = 0;
    std::uint64_t concurrentCycles = 0;
    std::uint64_t degeneratedGcs = 0;

    /**
     * Per-phase cost-attribution ledger, indexed by GcPhase. Filled
     * at finalize() from the scheduler's per-tag cycle totals plus
     * the phase spans collected during the run; entries' cycles sum
     * to gcThreadCycles exactly (conservation-checked), with
     * gcPhase[GcPhase::None] holding the declared glue slack.
     */
    std::array<GcPhaseStats, gcPhaseCount> gcPhase{};

    /** Sum of attributed (non-glue) phase cycles. */
    Cycles gcAttributedCycles() const
    {
        Cycles sum = 0;
        for (std::size_t p = 1; p < gcPhaseCount; ++p)
            sum += gcPhase[p].cycles;
        return sum;
    }

    /** GC cycles left in the glue bucket (the declared slack). */
    Cycles gcGlueCycles() const { return gcPhase[0].cycles; }

    /** Total wall time mutators spent stalled by GC throttling. */
    Ticks allocStallNs = 0;
    std::uint64_t allocStalls = 0;

    /** Bytes the run allocated / copied / promoted (diagnostics). */
    std::uint64_t bytesAllocated = 0;
    std::uint64_t bytesCopied = 0;

    /** Mutator object allocations (host-throughput diagnostics). */
    std::uint64_t objectsAllocated = 0;

    /**
     * Work-stealing tracer counters, accumulated by gc::WorkGang at
     * each dispatch drain: victim-deque probes (hits and misses) and
     * successful packet transfers. The cycles burned stealing live in
     * gcPhase[Steal/StealSpin/Termination]; these count the events.
     */
    std::uint64_t stealAttempts = 0;
    std::uint64_t stealHits = 0;

    /**
     * Heap-sizing / footprint tracking (heap/sizing.hh). The
     * committed-footprint numbers are measured for every run (fixed
     * policy included); the controller-decision counters stay zero
     * unless an active controller ran.
     */
    std::uint64_t peakCommittedBytes = 0;
    double avgCommittedBytes = 0;
    std::uint64_t heapLimitBytes = 0;
    std::uint64_t sizingGrows = 0;
    std::uint64_t sizingShrinks = 0;

    /** Barrier invocation counters (diagnostics). */
    std::uint64_t refLoads = 0;
    std::uint64_t refStores = 0;
    std::uint64_t satbEnqueues = 0;
    std::uint64_t loadBarrierSlowPaths = 0;

    /** Run outcome. */
    bool completed = false;
    bool oom = false;
    std::string failureReason;

    /** Bounded GC event log (oldest events kept). */
    std::vector<GcLogEvent> gcLog;

    /** Events dropped once the log reached its bound. */
    std::uint64_t gcLogDropped = 0;
};

/**
 * Pause-callback agent bound to one scheduler.
 */
class GcAgent
{
  public:
    /** Bind to @p scheduler; must outlive the agent. */
    explicit GcAgent(sim::Scheduler &scheduler);

    /** Called by a collector when a STW pause begins. */
    void pauseBegin(PauseKind kind);

    /** Called by a collector when the matching pause ends. */
    void pauseEnd();

    /** Whether a pause is currently open. */
    bool inPause() const { return inPause_; }

    /**
     * Whether a concurrent GC cycle is currently open (between
     * concurrentCycleBegin and its end). GC-aware load shedding and
     * balancing treat an in-cycle instance as degraded capacity.
     */
    bool concurrentCycleOpen() const { return cycleOpen_; }

    /**
     * Open a phase span (reentrant per phase: nested/overlapping
     * begins of the same phase coalesce into one wall span). Distinct
     * phases may overlap, e.g. a concurrent mark spanning an
     * evacuation pause.
     */
    void phaseBegin(GcPhase phase);

    /** Close a phase span opened by phaseBegin. */
    void phaseEnd(GcPhase phase);

    /**
     * Mark the start of a concurrent cycle so concurrentCycleEnd()
     * can log the true span. Overwrites any still-open cycle: a full
     * GC may abort a concurrent cycle without an explicit end.
     */
    void concurrentCycleBegin();

    /**
     * Record a concurrent cycle completion. Logs a
     * "concurrent-cycle" event spanning from the matching
     * concurrentCycleBegin(); without one, falls back to a
     * zero-duration event at now.
     */
    void concurrentCycleEnd();

    /**
     * Record the start of a Shenandoah degenerated (STW rescue)
     * collection; bumps the degenerated counter immediately so a run
     * that dies mid-rescue still reports it.
     */
    void degeneratedGcBegin();

    /**
     * Record the end of a degenerated collection: logs a
     * "degenerated-cycle" event spanning the whole failed cycle
     * (from concurrentCycleBegin when one was open, else from
     * degeneratedGcBegin).
     */
    void degeneratedGcEnd();

    /** Record a mutator allocation stall of @p ns. */
    void allocStall(Ticks ns);

    /** Append an event to the bounded GC log. */
    void logEvent(const char *what, Ticks start_ns, Ticks duration_ns);

    /** Mutable access for counters owned by other components. */
    RunMetrics &metrics() { return metrics_; }

    /**
     * Install a hook fired at every GC cycle boundary: the end of each
     * STW pause and of each concurrent cycle. The runtime uses this to
     * consult the heap-sizing controller exactly where HotSpot's
     * policies run — after a collection, when live-set and cost
     * numbers are fresh.
     */
    void
    setCycleBoundaryHook(std::function<void()> hook)
    {
        cycleBoundaryHook_ = std::move(hook);
    }

    /**
     * Close the books on a run: fills in whole-run totals from the
     * scheduler. Call exactly once, after the workload finishes (or
     * fails).
     */
    void finalize(bool completed, bool oom, std::string failure_reason);

  private:
    /** Append to the bounded gcLog without a flight-recorder echo. */
    void appendGcLog(const char *what, Ticks start_ns, Ticks duration_ns);

    sim::Scheduler &scheduler_;
    RunMetrics metrics_;
    bool inPause_ = false;
    PauseKind pauseKind_ = PauseKind::YoungGc;
    Ticks pauseStartNs_ = 0;
    Cycles pauseStartCycles_ = 0;
    bool finalized_ = false;
    std::array<unsigned, gcPhaseCount> phaseOpen_{};
    std::array<Ticks, gcPhaseCount> phaseStartNs_{};
    bool cycleOpen_ = false;
    Ticks cycleStartNs_ = 0;
    bool degenOpen_ = false;
    Ticks degenStartNs_ = 0;
    std::function<void()> cycleBoundaryHook_;
};

/**
 * RAII phase marker: collectors wrap their work loops in a PhaseScope
 * so the wall span and the scheduler tag bracket the same region.
 */
class PhaseScope
{
  public:
    PhaseScope(GcAgent &agent, GcPhase phase)
        : agent_(&agent), phase_(phase)
    {
        agent_->phaseBegin(phase_);
    }

    ~PhaseScope()
    {
        if (agent_ != nullptr)
            agent_->phaseEnd(phase_);
    }

    PhaseScope(PhaseScope &&other) noexcept
        : agent_(other.agent_), phase_(other.phase_)
    {
        other.agent_ = nullptr;
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;
    PhaseScope &operator=(PhaseScope &&) = delete;

  private:
    GcAgent *agent_;
    GcPhase phase_;
};

} // namespace distill::metrics

#endif // DISTILL_METRICS_AGENT_HH
