/**
 * @file
 * Golden determinism suite: the byte-level lockdown for hot-path
 * refactors.
 *
 * The simulator's determinism is a load-bearing contract — the run
 * cache, --jobs parity, fuzz repro lines, and the cross-collector
 * differential oracle all assume a (spec, collector, seed, schedule,
 * fault-plan) tuple replays bit-identically. Optimizations that touch
 * the mutator barrier fast path, the scheduler dispatch loop, or the
 * metrics bookkeeping can silently change charge order or iteration
 * order and skew every downstream number while still "passing" the
 * behavioral tests. This suite pins a grid across all six collectors,
 * workload seeds, schedule perturbations, and fault plans, and
 * compares the full RunRecord CSV rows — phase-ledger columns
 * included — against committed fixtures byte for byte.
 *
 * Fixture refresh (only when an *intentional* simulation change
 * lands): DISTILL_UPDATE_GOLDEN=1 ./test_golden
 * rewrites tests/golden/golden_runs.csv in the source tree; the diff
 * then shows exactly which cells moved and must be reviewed with the
 * change that moved them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gc/collectors.hh"
#include "heap/layout.hh"
#include "lbo/run.hh"
#include "wl/suite.hh"

#ifndef DISTILL_GOLDEN_DIR
#error "DISTILL_GOLDEN_DIR must point at tests/golden in the source tree"
#endif

namespace
{

using namespace distill;

/**
 * The pinned grid: small enough to run in about a second, wide enough
 * that every barrier implementation, every schedule-perturbation
 * preset knob set (vanilla, jitter, permute, preempt via seeds 0, 4,
 * 1, 2), and a real fault plan all leave fingerprints in the output.
 */
constexpr std::uint64_t workloadSeeds[] = {42, 1337};
constexpr std::uint64_t schedSeeds[] = {0, 1, 2, 4};
constexpr std::uint64_t faultSeeds[] = {0, 16};

/** Shrunk jme with a pinned min heap, so no min-heap probe runs and
 *  heap sizing is host-independent. */
wl::WorkloadSpec
goldenSpec()
{
    wl::WorkloadSpec spec = wl::findSpec("jme");
    spec.allocBytesPerThread = 512 * KiB;
    spec.minHeapBytes = 12 * heap::regionSize;
    return spec;
}

/** Render the whole grid as a CSV document (header + one row/cell). */
std::string
renderGrid()
{
    const wl::WorkloadSpec spec = goldenSpec();
    const std::uint64_t heap_bytes = 42 * heap::regionSize; // 3.5x min
    std::ostringstream out;
    out << lbo::RunRecord::csvHeader() << '\n';
    for (gc::CollectorKind kind : gc::allCollectors()) {
        for (std::uint64_t seed : workloadSeeds) {
            for (std::uint64_t sched : schedSeeds) {
                for (std::uint64_t fault : faultSeeds) {
                    lbo::Environment env;
                    env.schedSeed = sched;
                    env.faultSeed = fault;
                    lbo::RunRecord r = lbo::runOne(
                        spec, kind, heap_bytes, 3.5, seed, 0, env);
                    out << r.toCsv() << '\n';
                }
            }
        }
    }
    return out.str();
}

std::string
fixturePath()
{
    return std::string(DISTILL_GOLDEN_DIR) + "/golden_runs.csv";
}

TEST(Golden, RunRecordGridMatchesFixture)
{
    std::string got = renderGrid();

    if (std::getenv("DISTILL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(fixturePath(),
                          std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << fixturePath();
        out << got;
        out.close();
        GTEST_SKIP() << "regenerated " << fixturePath();
    }

    std::ifstream in(fixturePath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << fixturePath()
                    << " — run with DISTILL_UPDATE_GOLDEN=1 once";
    std::ostringstream want;
    want << in.rdbuf();

    if (got == want.str()) {
        SUCCEED();
        return;
    }
    // Locate the first differing line so the failure names the cell
    // instead of dumping two multi-kilobyte blobs.
    std::istringstream got_lines(got);
    std::istringstream want_lines(want.str());
    std::string g, w;
    std::size_t line = 0;
    while (true) {
        bool has_g = static_cast<bool>(std::getline(got_lines, g));
        bool has_w = static_cast<bool>(std::getline(want_lines, w));
        ++line;
        if (!has_g && !has_w)
            break;
        ASSERT_EQ(has_g, has_w)
            << "row count changed at line " << line;
        ASSERT_EQ(g, w) << "first divergence at line " << line
                        << " — a refactor changed simulation results; "
                           "if intentional, regenerate with "
                           "DISTILL_UPDATE_GOLDEN=1 and review the diff";
    }
    FAIL() << "documents differ but no line-level divergence found "
              "(line-ending change?)";
}

TEST(Golden, GridReplaysIdenticallyInProcess)
{
    // Independent of any fixture: two in-process renders of the same
    // grid must agree byte for byte. Catches nondeterminism that a
    // stale fixture could mask (e.g. unordered-container iteration
    // leaking into results, or state bleeding between runs).
    std::string first = renderGrid();
    std::string second = renderGrid();
    ASSERT_EQ(first, second)
        << "the same grid produced different bytes in one process";
}

} // namespace
