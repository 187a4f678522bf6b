#include "metrics/agent.hh"

#include "base/logging.hh"
#include "diag/flight_recorder.hh"
#include "sim/scheduler.hh"

namespace distill::metrics
{

const char *
pauseKindName(PauseKind kind)
{
    switch (kind) {
      case PauseKind::YoungGc:
        return "young";
      case PauseKind::FullGc:
        return "full";
      case PauseKind::InitialMark:
        return "initial-mark";
      case PauseKind::FinalMark:
        return "final-mark";
      case PauseKind::EvacPause:
        return "evacuation";
      case PauseKind::FinalPause:
        return "phase-flip";
      case PauseKind::Degenerated:
        return "degenerated";
    }
    return "?";
}

GcAgent::GcAgent(sim::Scheduler &scheduler)
    : scheduler_(scheduler)
{
}

void
GcAgent::pauseBegin(PauseKind kind)
{
    distill_assert(!inPause_, "nested STW pause");
    inPause_ = true;
    pauseKind_ = kind;
    pauseStartNs_ = scheduler_.now();
    pauseStartCycles_ = scheduler_.cycleTotals().total();
    diag::recorder().record(diag::EventKind::PauseBegin,
                            pauseKindName(kind), pauseStartNs_);
}

void
GcAgent::appendGcLog(const char *what, Ticks start_ns, Ticks duration_ns)
{
    constexpr std::size_t logBound = 8192;
    if (metrics_.gcLog.size() >= logBound) {
        ++metrics_.gcLogDropped;
        return;
    }
    metrics_.gcLog.push_back({what, start_ns, duration_ns});
}

void
GcAgent::logEvent(const char *what, Ticks start_ns, Ticks duration_ns)
{
    // The flight recorder keeps the *newest* events (its job is crash
    // forensics), so feed it even after the bounded metrics log — which
    // keeps the oldest — has stopped accepting.
    diag::recorder().record(diag::EventKind::GcEvent, what, start_ns,
                            duration_ns);
    appendGcLog(what, start_ns, duration_ns);
}

void
GcAgent::phaseBegin(GcPhase phase)
{
    auto p = static_cast<std::size_t>(phase);
    distill_assert(p < gcPhaseCount, "phaseBegin: bad phase");
    if (finalized_)
        return; // books already closed (failed-run teardown)
    if (phaseOpen_[p]++ == 0)
        phaseStartNs_[p] = scheduler_.now();
}

void
GcAgent::phaseEnd(GcPhase phase)
{
    auto p = static_cast<std::size_t>(phase);
    distill_assert(p < gcPhaseCount, "phaseEnd: bad phase");
    if (finalized_) {
        // A failed run's finalize() closed still-open spans; scopes
        // destroyed during teardown have nothing left to close.
        return;
    }
    distill_assert(phaseOpen_[p] > 0, "phaseEnd without phaseBegin");
    if (--phaseOpen_[p] != 0)
        return;
    Ticks start = phaseStartNs_[p];
    Ticks duration = scheduler_.now() - start;
    metrics_.gcPhase[p].wallNs += duration;
    ++metrics_.gcPhase[p].spans;
    diag::recorder().record(diag::EventKind::Phase, gcPhaseName(phase),
                            start, duration);
    appendGcLog(gcPhaseEventLabel(phase), start, duration);
}

void
GcAgent::concurrentCycleBegin()
{
    // Overwrite semantics: a full GC can abort an in-flight cycle
    // without an explicit end (G1's escalation path does).
    cycleOpen_ = true;
    cycleStartNs_ = scheduler_.now();
}

void
GcAgent::concurrentCycleEnd()
{
    ++metrics_.concurrentCycles;
    Ticks start = cycleOpen_ ? cycleStartNs_ : scheduler_.now();
    Ticks duration = cycleOpen_ ? scheduler_.now() - start : 0;
    cycleOpen_ = false;
    logEvent("concurrent-cycle", start, duration);
    if (cycleBoundaryHook_ && !finalized_)
        cycleBoundaryHook_();
}

void
GcAgent::degeneratedGcBegin()
{
    ++metrics_.degeneratedGcs;
    degenOpen_ = true;
    // The interesting span is the whole cycle that went degenerate,
    // not just the STW rescue (which the pause event already covers).
    degenStartNs_ = cycleOpen_ ? cycleStartNs_ : scheduler_.now();
}

void
GcAgent::degeneratedGcEnd()
{
    Ticks start = degenOpen_ ? degenStartNs_ : scheduler_.now();
    Ticks duration = degenOpen_ ? scheduler_.now() - start : 0;
    degenOpen_ = false;
    logEvent("degenerated-cycle", start, duration);
}

void
GcAgent::allocStall(Ticks ns)
{
    metrics_.allocStallNs += ns;
    ++metrics_.allocStalls;
    logEvent("alloc-stall", scheduler_.now(), ns);
}

void
GcAgent::pauseEnd()
{
    distill_assert(inPause_, "pauseEnd without pauseBegin");
    inPause_ = false;
    Ticks duration = scheduler_.now() - pauseStartNs_;
    Cycles cycles = scheduler_.cycleTotals().total() - pauseStartCycles_;
    metrics_.stw.wallNs += duration;
    metrics_.stw.cycles += cycles;
    metrics_.pauseNs.record(duration);
    logEvent(pauseKindName(pauseKind_), pauseStartNs_, duration);
    switch (pauseKind_) {
      case PauseKind::YoungGc:
      case PauseKind::EvacPause:
        ++metrics_.youngPauses;
        break;
      case PauseKind::FullGc:
      case PauseKind::Degenerated:
        ++metrics_.fullPauses;
        break;
      case PauseKind::InitialMark:
      case PauseKind::FinalMark:
      case PauseKind::FinalPause:
        ++metrics_.concurrentPauses;
        break;
    }
    if (cycleBoundaryHook_ && !finalized_)
        cycleBoundaryHook_();
}

// Every scheduler tag must have a home in the ledger.
static_assert(gcPhaseTagCount <= sim::SimThread::maxPhaseTags,
              "phase taxonomy exceeds the scheduler's tag space");

void
GcAgent::finalize(bool completed, bool oom, std::string failure_reason)
{
    distill_assert(!finalized_, "double finalize");
    distill_assert(!inPause_, "finalize inside a pause");
    finalized_ = true;
    // A failed run can die with phase spans still open; close them so
    // wall totals stay meaningful.
    for (std::size_t p = 0; p < gcPhaseCount; ++p) {
        if (phaseOpen_[p] > 0) {
            phaseOpen_[p] = 1;
            phaseEnd(static_cast<GcPhase>(p));
        }
    }
    const sim::CycleTotals &totals = scheduler_.cycleTotals();
    metrics_.total.wallNs = scheduler_.now();
    metrics_.total.cycles = totals.total();
    metrics_.gcThreadCycles = totals.gc;
    metrics_.mutatorCycles = totals.mutator;
    // Fold the scheduler's per-tag cycle totals into the ledger: each
    // phase owns one concurrent and one in-pause tag. The attribution
    // must conserve the GC cycle total *exactly* — glue is a declared
    // bucket (GcPhase::None), not slop — so misattribution is a hard
    // failure here instead of a silent skew in Cost_GC.
    Cycles attributed = 0;
    for (std::size_t p = 0; p < gcPhaseCount; ++p) {
        Cycles conc = totals.gcByTag[p];
        Cycles stw = totals.gcByTag[p + gcPhaseCount];
        metrics_.gcPhase[p].cycles = conc + stw;
        metrics_.gcPhase[p].stwCycles = stw;
        attributed += conc + stw;
    }
    distill_assert(attributed == totals.gc,
                   "phase-attribution leak: %llu of %llu GC cycles",
                   static_cast<unsigned long long>(attributed),
                   static_cast<unsigned long long>(totals.gc));
    metrics_.completed = completed;
    metrics_.oom = oom;
    metrics_.failureReason = std::move(failure_reason);
}

} // namespace distill::metrics
