/**
 * @file
 * Experiment sweeps: the paper's measurement grid.
 *
 * A sweep runs {benchmarks} x {heap multipliers} x {collectors} x
 * {invocations}, with heap sizes expressed relative to each
 * benchmark's minimum heap (measured with G1, the most
 * space-efficient collector — paper §IV-A(c)). Completed runs are
 * cached on disk so the many bench binaries that share a grid (Tables
 * VI-XI, Figs. 1-4) do not re-simulate it.
 *
 * With SweepConfig::jobs > 1 the grid executes through an N-way
 * forked-child process pool (lbo/pool.hh): cells complete in whatever
 * order the hardware gives, but the returned vector is always in
 * canonical grid order and cell records are bit-identical to a
 * sequential run of the same grid — the simulator is deterministic
 * per (seed, environment), so only scheduling of whole cells differs.
 *
 * Environment knobs:
 *   DISTILL_INVOCATIONS  override invocation count (default 5)
 *   DISTILL_CACHE_DIR    cache directory (default ".")
 *   DISTILL_NO_CACHE     set to 1 to ignore and not write the cache
 */

#ifndef DISTILL_LBO_SWEEP_HH
#define DISTILL_LBO_SWEEP_HH

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gc/collectors.hh"
#include "lbo/min_heap.hh"
#include "lbo/record.hh"
#include "lbo/run.hh"
#include "wl/spec.hh"

namespace distill::lbo
{

/** The eight heap multipliers from the paper's tables. */
const std::vector<double> &paperHeapFactors();

/** Invocation count, honoring DISTILL_INVOCATIONS. */
unsigned invocationsFromEnv(unsigned fallback = 5);

/**
 * One cell of a sweep grid: what identifies a run of one benchmark
 * before it executes.
 */
struct GridCell
{
    gc::CollectorKind collector;
    std::uint64_t heapBytes; //!< grid value; 0 for Epsilon
    double heapFactor;
    std::uint64_t seed;
    unsigned invocation;
    heap::SizingPolicy sizing;
};

/** Sweep description. */
struct SweepConfig
{
    std::vector<wl::WorkloadSpec> benchmarks;
    std::vector<double> heapFactors;
    std::vector<gc::CollectorKind> collectors;

    /**
     * Heap-limit policies to sweep (heap/sizing.hh); a first-class
     * grid dimension like heapFactors. The default single-element
     * {Fixed} reproduces the pre-sizing grid exactly — fixed cells
     * keep their cache keys, so existing caches stay warm. Epsilon
     * runs once per invocation regardless (every policy is a forced
     * no-op for it).
     */
    std::vector<heap::SizingPolicy> sizingPolicies = {
        heap::SizingPolicy::Fixed};

    /** Also run Epsilon once per benchmark for the LBO estimate. */
    bool includeEpsilon = true;

    unsigned invocations = 5;
    std::uint64_t baseSeed = 0xD15711;
    Environment env;

    /**
     * Bounded retry policy for spuriously-perturbed schedules: a cell
     * that fails under a nonzero env.schedSeed (except oracle
     * divergences, which are real bugs) is re-run up to this many
     * times under freshly derived perturbation seeds before its
     * failure record is accepted. 0 disables retries.
     */
    unsigned retries = 0;

    /**
     * Run every invocation in a forked child process so a crash
     * (assertion failure, sanitizer abort) in one cell becomes a
     * status="crash" failure record instead of killing the whole
     * grid. Isolated children also arm the crash-forensics handlers
     * (src/diag/), so a dying cell leaves a sidecar report with the
     * flight-recorder tail; the sidecar path and failure signature
     * are attached to the synthesized record. POSIX only; silently
     * runs in-process elsewhere.
     */
    bool isolateInvocations = false;

    /**
     * Wall-clock hang watchdog for isolated invocations, in
     * milliseconds of real time per cell (0 = disabled). Distinct
     * from --max-virtual-time: a livelocked child burns real CPU
     * without advancing the virtual clock, so only a wall-clock
     * deadline catches it. On expiry the parent sends SIGTERM (the
     * child's handler dumps a status=hang sidecar), waits a short
     * grace period, escalates to SIGKILL, and records the cell as
     * status="hang" rather than "crash". Requires isolateInvocations.
     */
    std::uint64_t watchdogMs = 0;

    /**
     * Isolated child processes kept in flight at once. 1 (the
     * default) runs the grid sequentially, exactly as before. > 1
     * implies isolateInvocations — every cell forks — and runs cells
     * through a poll(2) process pool with per-child watchdog
     * deadlines; the records produced are bit-identical to a
     * sequential run, only completion order differs (see onRecord).
     * Ignored (sequential fallback) on platforms without fork().
     */
    unsigned jobs = 1;

    /**
     * Streaming hook: invoked for every record the sweep produces,
     * except cells satisfied from a loaded resume file (their rows
     * already exist in the resume CSV). Lets drivers append to an
     * output CSV incrementally so a killed sweep loses nothing. With
     * jobs == 1 records arrive in grid order; with jobs > 1 they
     * arrive in completion order — drivers that need the canonical
     * order should rewrite their CSV from run()'s return value (which
     * is always canonical) once the sweep finishes, keeping the
     * streamed rows as a crash checkpoint in the meantime.
     */
    std::function<void(const RunRecord &)> onRecord;
};

/**
 * Runs sweeps with a persistent on-disk cache.
 */
class SweepRunner
{
  public:
    SweepRunner();

    /** Execute (or load) the whole grid. */
    std::vector<RunRecord> run(const SweepConfig &config);

    /**
     * Minimum heap (bytes) at which @p spec completes under G1,
     * found by exponential probe + binary search (cached).
     */
    std::uint64_t minHeap(const wl::WorkloadSpec &spec,
                          const Environment &env);

    /** Copy of @p spec with minHeapBytes measured and filled in. */
    wl::WorkloadSpec withMinHeap(const wl::WorkloadSpec &spec,
                                 const Environment &env);

    /**
     * Checkpoint/resume: load a previous sweep's output CSV. Cells
     * whose records appear in it are served from the file instead of
     * re-run (independent of DISTILL_NO_CACHE). Returns the number of
     * records loaded; unparseable lines are skipped.
     */
    std::size_t loadResumeFile(const std::string &path);

    /** Retries performed by the bounded retry policy so far. */
    unsigned retriesAttempted() const { return retriesAttempted_; }

  private:
    RunRecord runCached(const wl::WorkloadSpec &spec,
                        const GridCell &cell, const SweepConfig &config);

    RunRecord executeCell(const wl::WorkloadSpec &spec,
                          const GridCell &cell, const Environment &env,
                          const SweepConfig &config);

    /** The jobs > 1 executor: the whole grid through a ProcessPool. */
    std::vector<RunRecord> runPooled(const SweepConfig &config);

    void loadCaches();
    void appendRun(const RunRecord &record);

    bool cacheEnabled_ = true;
    std::string runCachePath_;
    std::unordered_map<std::string, RunRecord> runCache_;
    std::unordered_map<std::string, RunRecord> resumeCache_;
    MinHeapFinder minHeaps_;
    unsigned retriesAttempted_ = 0;
};

/** Per-invocation workload seed (identical across collectors). */
std::uint64_t invocationSeed(std::uint64_t base_seed,
                             const std::string &bench,
                             unsigned invocation);

} // namespace distill::lbo

#endif // DISTILL_LBO_SWEEP_HH
