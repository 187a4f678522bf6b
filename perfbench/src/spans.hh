/**
 * @file
 * Outside-in host-time tracing for the benchmark of record.
 *
 * Every span is opened by the benchmark itself, around a call into a
 * public library function (MinHeapFinder, SweepRunner::run, the LBO
 * analyzer, serve::runFleet). Runtime lifetimes are observed through
 * rt::setHeapObserverFactory: the factory call marks a Runtime's
 * birth, onWorldStopped/onWorldResuming bound each stop-the-world
 * pause, and the observer's destructor marks its death. The observer
 * is destroyed before the Runtime's GcAgent and Scheduler (see member
 * order in src/rt/runtime.hh), so their counters are still readable
 * there.
 *
 * Nothing here runs inside the library: a run without a Tracer alive
 * executes exactly the library code a user runs.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** A host-time interval, seconds since the tracer's epoch. */
struct Interval
{
    double begin = 0;
    double end = 0;
};

/**
 * Self time of @p span: its length minus the part of it that the union
 * of @p children covers. Children may overlap each other and may stick
 * out of the span; only their overlap with the span counts.
 */
double selfTime(Interval span, std::vector<Interval> children);

/** @p num / @p base, or 0 when the base is 0 (nothing attempted). */
double ratio(double num, double base);

/**
 * Pool drain tail: the time from the (n - jobs + 1)-th to the n-th of
 * @p completions (any order), i.e. the stretch in which fewer cells
 * than pool slots remained. With n <= jobs it is first-to-last; with
 * no completions it is 0.
 */
double drainTail(std::vector<double> completions, unsigned jobs);

/** One Runtime's lifetime, observed from outside. */
struct Life
{
    Interval span;
    double stwSec = 0;            //!< host time inside STW pauses
    std::uint64_t pauses = 0;     //!< world-stopped brackets
    std::uint64_t objectsAllocated = 0;
    std::uint64_t dispatches = 0; //!< scheduler thread dispatches
    std::uint64_t satbEnqueues = 0;
    std::uint64_t loadBarrierSlowPaths = 0;
};

/** A named benchmark span. */
struct Span
{
    std::string name;
    Interval at;
};

/**
 * Collects spans and Runtime lives while alive. Construction installs
 * the process-wide heap-observer factory; destruction removes it.
 * Single-threaded: use it only around in-process (jobs 1) work.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Host seconds since construction. */
    double now() const;

    /** Run @p fn inside a span named @p name; returns its interval. */
    template <typename Fn>
    Interval
    span(const char *name, Fn &&fn)
    {
        Interval at{now(), 0};
        fn();
        at.end = now();
        spans_.push_back({name, at});
        return at;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Life> &lives() const { return lives_; }

    /** Record a finished life (called by the observer's destructor). */
    void addLife(const Life &life) { lives_.push_back(life); }

    /** Chrome trace-event JSON of every span and life. */
    std::string chromeTrace() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<Life> lives_;
};

/** The lives in @p lives born inside @p window. */
std::vector<const Life *> livesWithin(const std::vector<Life> &lives,
                                      Interval window);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
