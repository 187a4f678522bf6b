#include "lbo/sweep.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/rng.hh"

#include "base/logging.hh"
#include "diag/crash_handler.hh"
#include "heap/layout.hh"
#include "lbo/cache_io.hh"
#include "lbo/pool.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#define DISTILL_HAVE_FORK 1
#endif

namespace distill::lbo
{

namespace
{

/** Cache and resume key of a run: its identity columns. */
std::string
key(const RunRecord &r)
{
    std::string k =
        strprintf("%s|%s|%llu|%llu|%u", r.bench.c_str(),
                  r.collector.c_str(),
                  static_cast<unsigned long long>(r.heapBytes),
                  static_cast<unsigned long long>(r.seed), r.invocation);
    // Faulted/perturbed/controller cells get a distinct key; each
    // suffix is only added when non-default so clean grids keep
    // hitting pre-existing cache entries.
    if (r.faultSeed != 0) {
        k += strprintf("|f%llu",
                       static_cast<unsigned long long>(r.faultSeed));
    }
    if (r.schedSeed != 0) {
        k += strprintf("|s%llu",
                       static_cast<unsigned long long>(r.schedSeed));
    }
    if (!r.sizingPolicy.empty() && r.sizingPolicy != "fixed")
        k += strprintf("|z%s", r.sizingPolicy.c_str());
    return k;
}

/** @p base with @p cell's sizing policy: the environment it runs in. */
Environment
cellEnv(const Environment &base, const GridCell &cell)
{
    Environment env = base;
    env.sizingPolicy = cell.sizing;
    return env;
}

/** Execute @p cell of @p spec in-process under @p env. */
RunRecord
runCell(const wl::WorkloadSpec &spec, const GridCell &cell,
        const Environment &env)
{
    return runOne(spec, cell.collector, cell.heapBytes, cell.heapFactor,
                  cell.seed, cell.invocation, env);
}

/**
 * Key of the record @p cell produces under @p env. It keys by the heap
 * and sizing policy the run will actually execute, so the cells
 * makeRunConfig() collapses (every Epsilon heap, every policy forced
 * to fixed) share one cache entry instead of re-simulating identical
 * runs under several names.
 */
std::string
cellKey(const wl::WorkloadSpec &spec, const GridCell &cell,
        const Environment &env)
{
    return key(identityRecord(spec, cell.collector,
                              makeRunConfig(spec, cell.collector,
                                            cell.heapBytes, cell.seed, env),
                              0.0, cell.invocation));
}

/**
 * @p spec's cells in canonical grid order: per invocation -> Epsilon
 * -> per heap factor -> per sizing policy -> per collector. Epsilon is
 * heap- and policy-independent (every controller is a forced no-op
 * for it), so one run serves the grid.
 */
std::vector<GridCell>
specCells(const SweepConfig &config, const wl::WorkloadSpec &spec)
{
    std::vector<GridCell> cells;
    for (unsigned inv = 0; inv < config.invocations; ++inv) {
        std::uint64_t seed =
            invocationSeed(config.baseSeed, spec.name, inv);
        if (config.includeEpsilon) {
            cells.push_back({gc::CollectorKind::Epsilon, 0, 0.0, seed, inv,
                             heap::SizingPolicy::Fixed});
        }
        for (double factor : config.heapFactors) {
            for (heap::SizingPolicy sizing : config.sizingPolicies) {
                for (gc::CollectorKind collector : config.collectors) {
                    if (collector == gc::CollectorKind::Epsilon)
                        continue;
                    cells.push_back({collector, heapBytesAt(spec, factor),
                                     factor, seed, inv, sizing});
                }
            }
        }
    }
    return cells;
}

/**
 * Schedule seed for retry @p attempt of a cell that failed under
 * @p sched_seed: a fresh perturbation, never the vanilla seed 0.
 */
std::uint64_t
retrySchedSeed(std::uint64_t sched_seed, unsigned attempt)
{
    std::uint64_t state = sched_seed ^ (attempt * 0x9e3779b97f4a7c15ULL);
    std::uint64_t seed = splitMix64(state);
    return seed != 0 ? seed : attempt;
}

/** Append a ';'-separated entry to a record's notes column. */
void
appendNote(RunRecord &record, const std::string &note)
{
    if (!record.notes.empty())
        record.notes += ';';
    record.notes += note;
}

#ifdef DISTILL_HAVE_FORK

/**
 * Whether a child's shipped bytes already contain one complete,
 * parseable record line. Used as the pool's payload-completeness test:
 * a child that satisfies this at its watchdog deadline delivered its
 * result — only the teardown is slow — and must not be misrecorded as
 * a hang.
 */
bool
completeRecordLine(const std::string &buf)
{
    auto nl = buf.find('\n');
    if (nl == std::string::npos)
        return false;
    RunRecord r;
    return RunRecord::fromCsv(buf.substr(0, nl), r);
}

/**
 * Turn one isolated child's PoolResult into the cell's RunRecord:
 * either the record the child shipped (possibly annotated), or a
 * synthesized crash/hang/error failure record enriched with whatever
 * forensics the crash handlers left behind. Shared by the sequential
 * and pooled executors so the two produce byte-identical records.
 */
RunRecord
finalizeIsolated(const wl::WorkloadSpec &spec, const GridCell &cell,
                 const Environment &env, std::uint64_t watchdog_ms,
                 const std::string &sidecar, const PoolResult &result)
{
    std::string buf = result.payload;
    if (!buf.empty() && buf.back() == '\n')
        buf.pop_back();
    RunRecord parsed;
    bool have_record = RunRecord::fromCsv(buf, parsed);
    bool exited_ok = WIFEXITED(result.waitStatus) &&
        WEXITSTATUS(result.waitStatus) == 0;

    RunRecord r;
    // A complete record is accepted when the child exited cleanly —
    // and also when the watchdog ended it (slow teardown: the result
    // was already in hand; killing the lingering child doesn't unmake
    // it). A child that *crashed* after shipping a record still counts
    // as a crash: its teardown may validate state the record depends
    // on.
    if (have_record && (exited_ok || result.hung)) {
        r = parsed;
        if (result.hung)
            appendNote(r, "slow-teardown");
        if (result.drainError)
            appendNote(r, "drain-error");
    } else {
        // The child died (or hung, or the parent lost its pipe) before
        // a record arrived: synthesize a failure record so the cell is
        // accounted for and reproducible.
        r = identityRecord(spec, cell.collector,
                           makeRunConfig(spec, cell.collector,
                                         cell.heapBytes, cell.seed, env),
                           cell.heapFactor, cell.invocation);
        if (result.drainError) {
            // The *parent's* poll()/read() failed, so the payload may
            // be truncated through no fault of the child; blaming the
            // child as a hang (and SIGTERMing it) is the bug this
            // branch fixes. Distinct status so triage can tell an
            // infrastructure loss from a real child failure.
            r.status = "error";
            r.failReason = RunRecord::sanitizeReason(
                "parent pipe poll/read error; child record lost");
        } else if (result.hung) {
            r.status = "hang";
            r.failReason = RunRecord::sanitizeReason(strprintf(
                "wallclock-timeout after %llums",
                static_cast<unsigned long long>(watchdog_ms)));
        } else {
            r.status = "crash";
            if (WIFSIGNALED(result.waitStatus)) {
                int sig = WTERMSIG(result.waitStatus);
                r.failReason = RunRecord::sanitizeReason(
                    strprintf("child killed by %s (signal %d)",
                              diag::signalName(sig), sig));
            } else if (WIFEXITED(result.waitStatus) &&
                       WEXITSTATUS(result.waitStatus) != 0) {
                r.failReason = RunRecord::sanitizeReason(
                    strprintf("child exited %d",
                              WEXITSTATUS(result.waitStatus)));
            } else {
                r.failReason = "child produced no record";
            }
        }
        if (std::ifstream(sidecar).good()) {
            r.sidecar = sidecar;
            r.signature = RunRecord::sanitizeReason(
                diag::readSidecarSignature(sidecar));
        }
    }
    if (result.spawnRetries > 0) {
        appendNote(r,
                   strprintf("spawn-retried=%u", result.spawnRetries));
    }
    return r;
}

#endif // DISTILL_HAVE_FORK

/**
 * Run one invocation in a forked child so a crash (assertion,
 * sanitizer abort, validator fatal) is contained: the child ships its
 * record back over a pipe, and a dead or garbled child becomes a
 * synthesized status="crash" record instead of taking the sweep down.
 *
 * The child arms the diag crash handlers with a per-cell sidecar
 * path, so a fatal signal dumps the flight-recorder tail before the
 * default disposition kills it. With @p watchdog_ms > 0 the parent
 * additionally enforces a wall-clock deadline: an unresponsive child
 * gets SIGTERM (its handler writes a status=hang sidecar), then after
 * a short grace period SIGKILL, and the cell records as status="hang".
 *
 * Implemented as a one-slot ProcessPool so the sequential and jobs>1
 * paths share every line of child setup, drain, watchdog, and record
 * finalization. When pipe()/fork() fails the cell runs unprotected in
 * the sweep process — loudly: a warning is emitted and the record
 * carries an "isolation-degraded" note (it used to happen silently).
 */
RunRecord
runIsolated(const wl::WorkloadSpec &spec, const GridCell &cell,
            const Environment &env, std::uint64_t watchdog_ms)
{
#ifdef DISTILL_HAVE_FORK
    std::string sidecar = diag::sidecarReportPath(
        detail::cacheDir(), spec.name, gc::collectorName(cell.collector),
        cell.heapBytes, cell.seed, cell.invocation);
    ProcessPool pool(1);
    PoolJob job;
    job.watchdogMs = watchdog_ms;
    job.sidecar = sidecar;
    job.payloadComplete = completeRecordLine;
    job.work = [&]() {
        std::string line = runCell(spec, cell, env).toCsv();
        line.push_back('\n');
        return line;
    };
    pool.submit(std::move(job));
    RunRecord out;
    pool.run([&](PoolResult result) {
        if (!result.spawned) {
            warn("running %s/%s invocation %u unprotected in-process "
                 "(isolation degraded: cannot fork)",
                 spec.name.c_str(), gc::collectorName(cell.collector),
                 cell.invocation);
            out = runCell(spec, cell, env);
            appendNote(out, "isolation-degraded");
            return;
        }
        out = finalizeIsolated(spec, cell, env, watchdog_ms, sidecar,
                               result);
    });
    return out;
#else
    (void)watchdog_ms;
    return runCell(spec, cell, env);
#endif
}

} // namespace

const std::vector<double> &
paperHeapFactors()
{
    static const std::vector<double> factors = {1.4, 1.9, 2.4, 3.0,
                                                3.7, 4.4, 5.2, 6.0};
    return factors;
}

unsigned
invocationsFromEnv(unsigned fallback)
{
    const char *env = std::getenv("DISTILL_INVOCATIONS");
    if (env != nullptr && *env != '\0') {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return fallback;
}

std::uint64_t
invocationSeed(std::uint64_t base_seed, const std::string &bench,
               unsigned invocation)
{
    std::uint64_t h = base_seed;
    for (char c : bench)
        h = splitMix64(h) ^ static_cast<std::uint64_t>(c);
    h ^= invocation * 0x9e3779b97f4a7c15ULL;
    return splitMix64(h);
}

SweepRunner::SweepRunner()
{
    cacheEnabled_ = detail::cacheEnabledFromEnv();
    runCachePath_ = strprintf("%s/distill_runs_v%d.csv",
                              detail::cacheDir().c_str(),
                              detail::cacheEpoch);
    if (cacheEnabled_)
        loadCaches();
}

void
SweepRunner::loadCaches()
{
    std::ifstream runs(runCachePath_);
    std::string line;
    if (runs) {
        std::getline(runs, line); // header
        while (std::getline(runs, line)) {
            RunRecord r;
            if (RunRecord::fromCsv(line, r)) {
                runCache_[key(r)] = r;
            }
        }
    }
}

std::size_t
SweepRunner::loadResumeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("--resume: cannot open %s; starting fresh", path.c_str());
        return 0;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string content = ss.str();
    // A sweep killed mid-append leaves a final line without its
    // newline. Such a partial row could still parse (cut between two
    // fields), silently resuming with corrupt data; drop it instead —
    // the cell re-runs and the row is rewritten whole.
    if (!content.empty() && content.back() != '\n') {
        std::size_t cut = content.rfind('\n');
        std::string partial =
            content.substr(cut == std::string::npos ? 0 : cut + 1);
        warn("--resume: ignoring truncated trailing line in %s "
             "(\"%.40s...\"); the cell will re-run",
             path.c_str(), partial.c_str());
        content.erase(cut == std::string::npos ? 0 : cut + 1);
    }
    std::istringstream lines(content);
    std::string line;
    std::size_t loaded = 0;
    RunRecord r;
    // The first line is normally the header, but tolerate headerless
    // files by trying to parse it as a record too.
    while (std::getline(lines, line)) {
        if (!RunRecord::fromCsv(line, r))
            continue;
        resumeCache_[key(r)] = r;
        ++loaded;
    }
    return loaded;
}

void
SweepRunner::appendRun(const RunRecord &record)
{
    if (!cacheEnabled_)
        return;
    bool fresh = !std::ifstream(runCachePath_).good();
    std::string payload;
    if (fresh) {
        payload = RunRecord::csvHeader();
        payload.push_back('\n');
    }
    payload += record.toCsv();
    payload.push_back('\n');
    detail::appendLineAtomic(runCachePath_, payload);
}

RunRecord
SweepRunner::executeCell(const wl::WorkloadSpec &spec,
                         const GridCell &cell, const Environment &env,
                         const SweepConfig &config)
{
    auto once = [&](const Environment &attempt_env) {
        return config.isolateInvocations
            ? runIsolated(spec, cell, attempt_env, config.watchdogMs)
            : runCell(spec, cell, attempt_env);
    };
    RunRecord r = once(env);
    // A perturbed schedule can fail spuriously (a pathological
    // interleaving tripping the virtual-time limit, say); re-run under
    // freshly derived perturbations to separate schedule bad luck from
    // real cell failures. Oracle divergences are real bugs — never
    // retried away.
    for (unsigned attempt = 1; attempt <= config.retries && r.failed() &&
         r.status != "oracle" && env.schedSeed != 0;
         ++attempt) {
        // Copy from env, not config.env: the retry must preserve the
        // cell's sizing policy.
        Environment retry_env = env;
        retry_env.schedSeed = retrySchedSeed(env.schedSeed, attempt);
        ++retriesAttempted_;
        inform("retry %u/%u for %s/%s (status=%s, sched-seed %llu)",
               attempt, config.retries, spec.name.c_str(),
               gc::collectorName(cell.collector), r.status.c_str(),
               static_cast<unsigned long long>(retry_env.schedSeed));
        r = once(retry_env);
    }
    return r;
}

RunRecord
SweepRunner::runCached(const wl::WorkloadSpec &spec, const GridCell &cell,
                       const SweepConfig &config)
{
    Environment env = cellEnv(config.env, cell);
    std::string k = cellKey(spec, cell, env);
    // Resume hits bypass everything, including onRecord: their rows
    // already live in the resume CSV.
    auto resumed = resumeCache_.find(k);
    if (resumed != resumeCache_.end())
        return resumed->second;
    if (cacheEnabled_) {
        auto it = runCache_.find(k);
        if (it != runCache_.end()) {
            if (config.onRecord)
                config.onRecord(it->second);
            return it->second;
        }
    }
    RunRecord r = executeCell(spec, cell, env, config);
    if (cacheEnabled_) {
        runCache_[k] = r;
        appendRun(r);
    }
    if (config.onRecord)
        config.onRecord(r);
    return r;
}

std::uint64_t
SweepRunner::minHeap(const wl::WorkloadSpec &spec, const Environment &env)
{
    return minHeaps_.minHeap(spec, env);
}

wl::WorkloadSpec
SweepRunner::withMinHeap(const wl::WorkloadSpec &spec,
                         const Environment &env)
{
    wl::WorkloadSpec copy = spec;
    copy.minHeapBytes = minHeap(spec, env);
    return copy;
}

std::vector<RunRecord>
SweepRunner::run(const SweepConfig &config)
{
    if (config.jobs > 1 && ProcessPool::available())
        return runPooled(config);
    std::vector<RunRecord> records;
    for (const wl::WorkloadSpec &raw_spec : config.benchmarks) {
        wl::WorkloadSpec spec = withMinHeap(raw_spec, config.env);
        for (const GridCell &cell : specCells(config, spec))
            records.push_back(runCached(spec, cell, config));
        inform("sweep: %s done", spec.name.c_str());
    }
    return records;
}

std::vector<RunRecord>
SweepRunner::runPooled(const SweepConfig &config)
{
#ifdef DISTILL_HAVE_FORK
    // Anchor every benchmark's heap-factor grid first; the min-heap
    // probes themselves fan out through the pool (one child per
    // benchmark performs its whole search).
    minHeaps_.measureAll(config.benchmarks, config.env, config.jobs,
                         config.watchdogMs);

    std::vector<wl::WorkloadSpec> specs;
    specs.reserve(config.benchmarks.size());
    for (const wl::WorkloadSpec &raw : config.benchmarks)
        specs.push_back(withMinHeap(raw, config.env));

    // The whole grid in canonical order; the returned vector
    // preserves exactly this order regardless of completion order.
    struct Cell : GridCell
    {
        std::size_t specIndex;
        std::string key;
    };
    std::vector<Cell> cells;
    for (std::size_t si = 0; si < specs.size(); ++si) {
        for (const GridCell &c : specCells(config, specs[si])) {
            cells.push_back({c, si,
                             cellKey(specs[si], c, cellEnv(config.env, c))});
        }
    }

    std::vector<RunRecord> records(cells.size());
    std::vector<std::size_t> specRemaining(specs.size(), 0);
    for (const Cell &cell : cells)
        ++specRemaining[cell.specIndex];
    std::size_t done = 0;
    std::size_t failed = 0;

    auto specDone = [&](std::size_t si) {
        if (--specRemaining[si] == 0)
            inform("sweep: %s done", specs[si].name.c_str());
    };

    // One pending execution per *distinct* cache key: two heap factors
    // that round to the same heap_bytes form one execution whose
    // record fans out to both cells, mirroring the sequential path
    // where the second cell is served from the just-filled cache. With
    // the cache disabled the sequential path runs both cells, so no
    // dedup either (the records differ in heapFactor).
    struct Pending
    {
        std::vector<std::size_t> cells; //!< canonical indices served
        unsigned attempt = 0;           //!< schedule retries so far
        Environment env;                //!< current attempt's env
        std::string sidecar;
    };
    std::vector<Pending> pending;
    std::unordered_map<std::string, std::size_t> pendingByKey;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        auto resumed = resumeCache_.find(cell.key);
        if (resumed != resumeCache_.end()) {
            // Resume hits bypass everything, including onRecord.
            records[i] = resumed->second;
            ++done;
            specDone(cell.specIndex);
            continue;
        }
        if (cacheEnabled_) {
            auto it = runCache_.find(cell.key);
            if (it != runCache_.end()) {
                records[i] = it->second;
                if (config.onRecord)
                    config.onRecord(it->second);
                ++done;
                specDone(cell.specIndex);
                continue;
            }
            auto dup = pendingByKey.find(cell.key);
            if (dup != pendingByKey.end()) {
                pending[dup->second].cells.push_back(i);
                continue;
            }
            pendingByKey[cell.key] = pending.size();
        }
        Pending p;
        p.cells.push_back(i);
        p.env = cellEnv(config.env, cell);
        p.sidecar = diag::sidecarReportPath(
            detail::cacheDir(), specs[cell.specIndex].name,
            gc::collectorName(cell.collector), cell.heapBytes, cell.seed,
            cell.invocation);
        pending.push_back(std::move(p));
    }

    ProgressMeter progress("sweep", cells.size());
    progress.update(done, failed, 0, true);

    ProcessPool pool(config.jobs);
    auto makeJob = [&](std::size_t pidx) {
        const Pending &p = pending[pidx];
        const Cell &cell = cells[p.cells.front()];
        PoolJob job;
        job.tag = pidx;
        job.spawnRetries = 0;
        job.watchdogMs = config.watchdogMs;
        job.sidecar = p.sidecar;
        job.payloadComplete = completeRecordLine;
        job.work = [spec = specs[cell.specIndex],
                    cell = static_cast<const GridCell &>(cell),
                    env = p.env]() {
            std::string line = runCell(spec, cell, env).toCsv();
            line.push_back('\n');
            return line;
        };
        return job;
    };
    for (std::size_t pidx = 0; pidx < pending.size(); ++pidx)
        pool.submit(makeJob(pidx));

    auto commit = [&](std::size_t pidx, const RunRecord &r) {
        Pending &p = pending[pidx];
        if (cacheEnabled_) {
            runCache_[cells[p.cells.front()].key] = r;
            appendRun(r);
        }
        for (std::size_t ci : p.cells) {
            records[ci] = r;
            if (config.onRecord)
                config.onRecord(r);
            ++done;
            if (r.failed())
                ++failed;
            specDone(cells[ci].specIndex);
        }
    };

    pool.run(
        [&](PoolResult result) {
            std::size_t pidx = result.tag;
            Pending &p = pending[pidx];
            const Cell &cell = cells[p.cells.front()];
            const wl::WorkloadSpec &spec = specs[cell.specIndex];
            RunRecord r;
            if (!result.spawned) {
                warn("running %s/%s invocation %u unprotected "
                     "in-process (isolation degraded: cannot fork)",
                     spec.name.c_str(),
                     gc::collectorName(cell.collector),
                     cell.invocation);
                r = runCell(spec, cell, p.env);
                appendNote(r, "isolation-degraded");
                if (result.spawnRetries > 0) {
                    appendNote(r, strprintf("spawn-retried=%u",
                                            result.spawnRetries));
                }
            } else {
                r = finalizeIsolated(spec, cell, p.env, config.watchdogMs,
                                     p.sidecar, result);
            }
            // The bounded schedule-retry policy, identical to the
            // sequential executeCell loop: same eligibility test, same
            // derived seeds, same log line.
            if (r.failed() && r.status != "oracle" &&
                config.env.schedSeed != 0 &&
                p.attempt < config.retries) {
                ++p.attempt;
                // Preserve the cell's sizing policy, exactly as the
                // sequential retry loop does.
                Environment retry_env = cellEnv(config.env, cell);
                retry_env.schedSeed =
                    retrySchedSeed(config.env.schedSeed, p.attempt);
                ++retriesAttempted_;
                inform("retry %u/%u for %s/%s (status=%s, sched-seed "
                       "%llu)",
                       p.attempt, config.retries, spec.name.c_str(),
                       gc::collectorName(cell.collector),
                       r.status.c_str(),
                       static_cast<unsigned long long>(
                           retry_env.schedSeed));
                p.env = retry_env;
                pool.submit(makeJob(pidx));
                return;
            }
            commit(pidx, r);
            progress.update(done, failed, 0);
        },
        [&](std::size_t inflight, std::size_t) {
            progress.update(done, failed, inflight);
        });
    progress.finish(done, failed);
    return records;
#else
    SweepConfig sequential = config;
    sequential.jobs = 1;
    return run(sequential);
#endif
}

} // namespace distill::lbo
