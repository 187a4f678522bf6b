/**
 * @file
 * Tests for the shared tool helpers in tools/: strict numeric flag
 * parsing (cli_parse.hh), and the run flags and REPRO-line assembly
 * (run_spec.hh). The parsers fatal() on malformed input, so the
 * rejection cases are death tests keyed on the diagnostic text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli_parse.hh"
#include "lbo/record.hh"
#include "run_spec.hh"

namespace distill::cli
{
namespace
{

TEST(CliParse, ParseU64AcceptsDecimalAndHex)
{
    EXPECT_EQ(parseU64("--n", "0"), 0u);
    EXPECT_EQ(parseU64("--n", "42"), 42u);
    EXPECT_EQ(parseU64("--n", "18446744073709551615"), UINT64_MAX);
    // Hex: diagnostic fault-plan seeds are written 0xD1A6... on REPRO
    // lines and in test definitions.
    EXPECT_EQ(parseU64("--fault-plan", "0xD1A6000000000000"),
              0xD1A6000000000000ull);
    EXPECT_EQ(parseU64("--n", "0Xff"), 255u);
    EXPECT_EQ(parseU64("--n", "0x0"), 0u);
}

TEST(CliParseDeathTest, ParseU64RejectsMalformedInput)
{
    EXPECT_DEATH(parseU64("--n", ""), "non-negative integer");
    EXPECT_DEATH(parseU64("--n", "-3"), "non-negative integer");
    EXPECT_DEATH(parseU64("--n", "+3"), "non-negative integer");
    EXPECT_DEATH(parseU64("--n", "12abc"), "non-negative integer");
    // One past UINT64_MAX: must be overflow, not a silent wrap.
    EXPECT_DEATH(parseU64("--n", "18446744073709551616"),
                 "non-negative integer");
    // A bare "0x" is not a hex number (no digits after the prefix).
    EXPECT_DEATH(parseU64("--n", "0x"), "non-negative integer");
    // The flag name must appear in the message.
    EXPECT_DEATH(parseU64("--heap-bytes", "junk"), "--heap-bytes");
}

TEST(CliParseDeathTest, ParseCountRejectsZero)
{
    EXPECT_EQ(parseCount("--invocations", "3"), 3u);
    EXPECT_DEATH(parseCount("--invocations", "0"), "at least 1");
}

TEST(CliParseDeathTest, ParseJobsRejectsZeroAndForkStorms)
{
    EXPECT_EQ(parseJobs("--jobs", "1"), 1u);
    EXPECT_EQ(parseJobs("--jobs", "64"), 64u);
    EXPECT_EQ(parseJobs("--jobs", "1024"), 1024u);
    EXPECT_DEATH(parseJobs("--jobs", "0"), "at least 1");
    EXPECT_DEATH(parseJobs("--jobs", "80000"), "not a sane pool size");
    EXPECT_DEATH(parseJobs("--jobs", "eight"), "non-negative integer");
}

TEST(CliParseDeathTest, ParseDoubleRejectsGarbage)
{
    EXPECT_DOUBLE_EQ(parseDouble("--f", "2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("--f", "1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseDouble("--f", "-1.5"), -1.5);
    EXPECT_DEATH(parseDouble("--f", ""), "expected a number");
    EXPECT_DEATH(parseDouble("--f", "abc"), "expected a number");
    EXPECT_DEATH(parseDouble("--f", "1.5x"), "expected a number");
}

TEST(CliParseDeathTest, ParsePositiveDoubleRejectsNonPositive)
{
    EXPECT_DOUBLE_EQ(parsePositiveDouble("--factor", "1.4"), 1.4);
    EXPECT_DEATH(parsePositiveDouble("--factor", "0"), "must be > 0");
    EXPECT_DEATH(parsePositiveDouble("--factor", "-1"), "must be > 0");
}

TEST(Repro, AppendFlagSkipsDefaultValue)
{
    std::string line = "x";
    appendFlag(line, "--sched-seed", 0);
    EXPECT_EQ(line, "x");
    appendFlag(line, "--sched-seed", 7);
    EXPECT_EQ(line, "x --sched-seed 7");
    appendFlag(line, "--max-virtual-time", 100, 100);
    EXPECT_EQ(line, "x --sched-seed 7");
    appendFlag(line, "--max-virtual-time", 99, 100);
    EXPECT_EQ(line, "x --sched-seed 7 --max-virtual-time 99");
}

TEST(Repro, BaseLineOmitsDefaultedFlags)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.collector = "Serial";
    r.heapBytes = 1234;
    r.seed = 42;
    EXPECT_EQ(runRepro(r),
              "REPRO: distill_run --bench jme --gc Serial "
              "--heap-bytes 1234 --seed 42");
}

TEST(Repro, AllReplayFlagsAppearWhenNonDefault)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.collector = "ZGC";
    r.heapBytes = 5767168;
    r.seed = 9;
    r.schedSeed = 7;
    r.faultSeed = 0xD1A6000000000000ull;
    RunSpec sweep;
    sweep.maxVirtualTime = 99;
    sweep.watchdogMs = 3000;
    EXPECT_EQ(runRepro(r, sweep),
              "REPRO: distill_run --bench jme --gc ZGC "
              "--heap-bytes 5767168 --seed 9 --sched-seed 7 "
              "--fault-plan 15106762000060907520 "
              "--max-virtual-time 99 --watchdog-ms 3000");
}

[[noreturn]] void
usageExit()
{
    std::exit(2);
}

/**
 * Parse @p line ("--key value ...") as argv through RunSpec @p groups.
 * Tokens it does not take go to @p rest, or fail the test.
 */
RunSpec
parseLine(const std::string &line, unsigned groups = RunSpec::AllGroups,
          std::vector<std::string> *rest = nullptr)
{
    std::vector<std::string> words = {"tool"};
    std::istringstream in(line);
    for (std::string w; in >> w;)
        words.push_back(w);
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    Args args(static_cast<int>(argv.size()), argv.data(), usageExit);
    RunSpec spec;
    while (!args.done()) {
        if (spec.parse(args, groups))
            continue;
        if (rest == nullptr)
            ADD_FAILURE() << "unparsed token " << args.peek();
        else
            rest->push_back(args.peek());
        args.next();
    }
    return spec;
}

TEST(RunSpec, ParseOfEmitIsIdentityOverRandomSpecs)
{
    std::mt19937_64 rng(20221);
    auto maybe = [&rng](std::uint64_t bound) -> std::uint64_t {
        return rng() % 2 ? 0 : 1 + rng() % bound;
    };
    const char *benches[] = {"jme", "h2", "xalan", "lusearch"};
    const char *collectors[] = {"Epsilon", "Serial", "G1", "ZGC"};
    const heap::SizingPolicy policies[] = {
        heap::SizingPolicy::Fixed, heap::SizingPolicy::Adaptive,
        heap::SizingPolicy::MemBalancer};
    for (int i = 0; i < 500; ++i) {
        RunSpec spec;
        spec.bench = benches[rng() % 4];
        spec.collector = collectors[rng() % 4];
        if (rng() % 2)
            spec.heapFactor = 0.5 + static_cast<double>(rng() % 100000) /
                    7919.0;
        spec.heapMib = maybe(4096);
        spec.heapBytes = maybe(UINT64_MAX - 1);
        spec.seed = rng();
        spec.sizing = policies[rng() % 3];
        spec.schedSeed = maybe(UINT64_MAX - 1);
        spec.faultPlan = maybe(UINT64_MAX - 1);
        spec.maxVirtualTime = maybe(UINT64_MAX - 1);
        spec.watchdogMs = maybe(100000);
        std::string line = spec.flags();
        EXPECT_EQ(parseLine(line), spec) << line;

        // The same flags in --key=value form.
        std::string joined;
        std::istringstream words(line);
        for (std::string key, value; words >> key >> value;)
            joined += key + "=" + value + " ";
        EXPECT_EQ(parseLine(joined), spec) << joined;
    }
}

TEST(RunSpec, EveryReproLineParsesBackToItsRecord)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.collector = "ZGC";
    r.heapBytes = 5767168;
    r.seed = 9;
    r.schedSeed = 7;
    r.faultSeed = 0xD1A6000000000000ull;
    r.sizingPolicy = "adaptive";
    RunSpec sweep;
    sweep.maxVirtualTime = 99;
    sweep.watchdogMs = 3000;
    std::string repro = runRepro(r, sweep);
    const std::string prefix = "REPRO: distill_run ";
    ASSERT_EQ(repro.rfind(prefix, 0), 0u);
    RunSpec back = parseLine(repro.substr(prefix.size()));
    EXPECT_EQ(back, replaySpec(r, sweep));
    EXPECT_EQ(back.sizing, heap::SizingPolicy::Adaptive);
    EXPECT_EQ(back.watchdogMs, 3000u);
}

TEST(RunSpec, GroupsLimitWhichFlagsParse)
{
    // distill_triage takes only the sweep-wide limits.
    std::vector<std::string> rest;
    RunSpec spec = parseLine("--sizing adaptive --watchdog-ms 5",
                             RunSpec::VirtualTime | RunSpec::Watchdog,
                             &rest);
    EXPECT_EQ(spec.watchdogMs, 5u);
    EXPECT_EQ(spec.sizing, heap::SizingPolicy::Fixed);
    EXPECT_EQ(rest, (std::vector<std::string>{"--sizing", "adaptive"}));
}

TEST(RunSpecDeathTest, MissingValueCallsUsage)
{
    EXPECT_EXIT(parseLine("--bench jme --seed"),
                ::testing::ExitedWithCode(2), "");
}

} // namespace
} // namespace distill::cli
