/**
 * @file
 * Serving-subsystem tests: arrival-schedule determinism and
 * TrafficBurst modulation, the request broker's admission /
 * deadline / retry accounting (attempt conservation above all), the
 * serving status taxonomy, busy-window extraction, fleet routing and
 * the result codec, and end-to-end determinism — the same seeds must
 * produce byte-identical serving CSV rows whether instances run
 * in-process or through the forked pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hh"
#include "heap/layout.hh"
#include "serve/arrival.hh"
#include "serve/broker.hh"
#include "serve/fleet.hh"
#include "serve/ladder.hh"
#include "serve/run.hh"
#include "test_util.hh"
#include "wl/suite.hh"

namespace distill
{
namespace
{

using serve::ArrivalSpec;
using serve::GcSignal;
using serve::Request;
using serve::RequestBroker;
using serve::ServeCounters;
using serve::ServePolicy;

// ----- arrival schedules ---------------------------------------------

ArrivalSpec
smallArrival(std::uint64_t seed = 7)
{
    ArrivalSpec spec;
    spec.ratePerSec = 1e6; // 1 request per virtual microsecond
    spec.requests = 500;
    spec.seed = seed;
    return spec;
}

TEST(ServeArrival, DeterministicAndAscending)
{
    fault::FaultPlan empty;
    std::vector<Ticks> a = serve::generateArrivals(smallArrival(), empty);
    std::vector<Ticks> b = serve::generateArrivals(smallArrival(), empty);
    ASSERT_EQ(a.size(), 500u);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

    std::vector<Ticks> c =
        serve::generateArrivals(smallArrival(8), empty);
    EXPECT_NE(a, c) << "different seed, different schedule";
}

TEST(ServeArrival, LoadFactorScalesRate)
{
    fault::FaultPlan empty;
    ArrivalSpec slow = smallArrival();
    ArrivalSpec fast = smallArrival();
    fast.loadFactor = 3.0;
    Ticks slow_span = serve::generateArrivals(slow, empty).back();
    Ticks fast_span = serve::generateArrivals(fast, empty).back();
    // 3x the rate should compress the schedule roughly 3x.
    EXPECT_LT(fast_span * 2, slow_span);
}

TEST(ServeArrival, TrafficBurstDensifiesWindow)
{
    ArrivalSpec spec = smallArrival();
    fault::FaultPlan plan;
    fault::FaultEvent burst;
    burst.kind = fault::FaultKind::TrafficBurst;
    burst.atNs = 100'000;
    burst.durationNs = 100'000;
    burst.magnitude = 4.0;
    plan.events.push_back(burst);

    fault::FaultPlan empty;
    auto countIn = [](const std::vector<Ticks> &v, Ticks lo, Ticks hi) {
        return std::count_if(v.begin(), v.end(), [&](Ticks t) {
            return t >= lo && t < hi;
        });
    };
    auto base = serve::generateArrivals(spec, empty);
    auto bursty = serve::generateArrivals(spec, plan);
    EXPECT_GT(countIn(bursty, 100'000, 200'000),
              2 * countIn(base, 100'000, 200'000));
}

// ----- serving fault plans -------------------------------------------

TEST(ServePlan, ServeSeedTagAndMixes)
{
    for (std::uint64_t entropy : {0ull, 1ull, 2ull, 3ull, 0xabcdefull}) {
        std::uint64_t seed = fault::FaultPlan::serveSeed(entropy);
        EXPECT_TRUE(fault::FaultPlan::isServeSeed(seed));
        fault::FaultPlan plan = fault::FaultPlan::fromSeed(seed);
        EXPECT_EQ(plan.planSeed, seed);
        ASSERT_TRUE(plan.enabled());
        for (const fault::FaultEvent &e : plan.events) {
            EXPECT_TRUE(e.kind == fault::FaultKind::TrafficBurst ||
                        e.kind == fault::FaultKind::InstanceBrownout)
                << "serve plans only inject serving faults";
        }
    }
    EXPECT_FALSE(fault::FaultPlan::isServeSeed(0));
    EXPECT_FALSE(fault::FaultPlan::isServeSeed(16));
    EXPECT_FALSE(
        fault::FaultPlan::isServeSeed(fault::FaultPlan::diagSeed(0)));
}

TEST(ServePlan, FaultKindNamesRoundTrip)
{
    using fault::FaultKind;
    const FaultKind kinds[] = {
        FaultKind::HeapSqueeze,  FaultKind::AllocBurst,
        FaultKind::MutatorKill,  FaultKind::DenyProgress,
        FaultKind::Livelock,     FaultKind::Crash,
        FaultKind::TrafficBurst, FaultKind::InstanceBrownout,
    };
    for (FaultKind kind : kinds) {
        FaultKind parsed = FaultKind::HeapSqueeze;
        ASSERT_TRUE(
            fault::faultKindFromName(fault::faultKindName(kind), parsed))
            << fault::faultKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    FaultKind sink = FaultKind::Crash;
    EXPECT_FALSE(fault::faultKindFromName("no-such-fault", sink));
    EXPECT_EQ(sink, FaultKind::Crash) << "failed parse must not write";
}

// ----- broker --------------------------------------------------------

/**
 * Drive @p broker with one synthetic worker that takes @p service_ns
 * per request, honoring in-flight deadlines the way ServeProgram does.
 */
ServeCounters
driveBroker(RequestBroker &broker, Ticks service_ns,
            const GcSignal &gc = GcSignal{})
{
    Ticks now = 0;
    while (true) {
        RequestBroker::Dispatch d = broker.next(now, gc);
        if (d.kind == RequestBroker::Dispatch::Kind::Done)
            break;
        if (d.kind == RequestBroker::Dispatch::Kind::Sleep) {
            now = std::max<Ticks>(now + 1, d.wakeNs);
            continue;
        }
        Ticks end = now + service_ns;
        if (d.request.deadlineNs != 0 && end > d.request.deadlineNs) {
            now = d.request.deadlineNs;
            broker.abandonInflight(d.request, now);
        } else {
            now = end;
            broker.complete(d.request, end);
        }
    }
    broker.drainRemaining();
    return broker.counters();
}

std::vector<Ticks>
simultaneousArrivals(std::size_t n, Ticks at = 1000)
{
    return std::vector<Ticks>(n, at);
}

TEST(ServeBroker, UnprotectedCompletesEverything)
{
    RequestBroker broker(simultaneousArrivals(50), ServePolicy{}, 1);
    ServeCounters c = driveBroker(broker, 100);
    EXPECT_EQ(c.issued, 50u);
    EXPECT_EQ(c.completed, 50u);
    EXPECT_EQ(c.uniqueRequests, 50u);
    EXPECT_EQ(c.shedTotal(), 0u);
    EXPECT_EQ(c.deadlineTotal(), 0u);
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, QueueCapSheds)
{
    ServePolicy policy;
    policy.queueCap = 4;
    RequestBroker broker(simultaneousArrivals(100), policy, 1);
    ServeCounters c = driveBroker(broker, 100);
    EXPECT_EQ(c.issued, 100u);
    EXPECT_EQ(c.shedQueueFull, 96u)
        << "only the 4 queue slots survive a simultaneous wave of 100";
    EXPECT_EQ(c.completed, 4u);
    EXPECT_LE(c.maxQueueDepth, 4u);
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, GcPressureTightensAdmission)
{
    ServePolicy policy;
    policy.queueCap = 8;
    policy.gcAware = true;
    GcSignal busy;
    busy.concurrentCycle = true;
    RequestBroker broker(simultaneousArrivals(20), policy, 1);
    ServeCounters c = driveBroker(broker, 100, busy);
    // Cap tightens to 8/4 = 2 while the cycle is open.
    EXPECT_GT(c.shedGcPressure, 0u);
    EXPECT_EQ(c.shedQueueFull, 0u)
        << "sheds under tightening carry the gc-pressure reason";
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, DeadlineExpiresQueuedAndInflight)
{
    ServePolicy policy;
    policy.deadlineNs = 500;
    RequestBroker broker(simultaneousArrivals(10), policy, 1);
    // Service time 400 < deadline 500, but the queue wait pushes
    // later requests past expiry while the first completes.
    ServeCounters c = driveBroker(broker, 400);
    EXPECT_GT(c.deadlineTotal(), 0u);
    EXPECT_GT(c.completed, 0u);
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, RetriesReissueAndExhaust)
{
    ServePolicy policy;
    policy.queueCap = 1;
    policy.maxRetries = 2;
    policy.backoffBaseNs = 50;
    policy.backoffCapNs = 200;
    RequestBroker broker(simultaneousArrivals(20), policy, 1);
    ServeCounters c = driveBroker(broker, 10'000);
    EXPECT_EQ(c.uniqueRequests, 20u);
    EXPECT_GT(c.issued, 20u) << "retries re-enter as fresh attempts";
    EXPECT_GT(c.retriesScheduled, 0u);
    EXPECT_GT(c.retryExhausted, 0u)
        << "a 1-deep queue with 10us service must exhaust some budget";
    EXPECT_EQ(c.issued, c.uniqueRequests + c.retriesScheduled);
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, DrainAccountsEverything)
{
    ServePolicy policy;
    policy.maxRetries = 3;
    policy.queueCap = 2;
    RequestBroker broker(simultaneousArrivals(30), policy, 1);
    // Abandon the run immediately: everything pending must drain into
    // the shed-drain bucket and conservation must still hold.
    GcSignal gc;
    (void)broker.next(2000, gc);
    broker.drainRemaining();
    const ServeCounters &c = broker.counters();
    // Sheds scheduled retries before the drain; each pending retry is
    // issued-then-drained so the ledger closes at 30 + retries.
    EXPECT_EQ(c.issued, 30u + c.retriesScheduled);
    EXPECT_GT(c.retriesScheduled, 0u);
    EXPECT_GT(c.shedDrain, 0u);
    EXPECT_TRUE(c.conserves());
}

TEST(ServeBroker, SameSeedSameDecisions)
{
    ServePolicy policy;
    policy.queueCap = 2;
    policy.maxRetries = 2;
    policy.deadlineNs = 5'000;
    fault::FaultPlan empty;
    std::vector<Ticks> schedule =
        serve::generateArrivals(smallArrival(), empty);

    RequestBroker a(schedule, policy, 42);
    RequestBroker b(schedule, policy, 42);
    ServeCounters ca = driveBroker(a, 900);
    ServeCounters cb = driveBroker(b, 900);
    EXPECT_EQ(ca.issued, cb.issued);
    EXPECT_EQ(ca.completed, cb.completed);
    EXPECT_EQ(ca.shedTotal(), cb.shedTotal());
    EXPECT_EQ(ca.deadlineTotal(), cb.deadlineTotal());
    EXPECT_EQ(ca.retriesScheduled, cb.retriesScheduled);
    EXPECT_EQ(a.metered().percentile(99), b.metered().percentile(99));
    EXPECT_TRUE(ca.conserves());
}

// ----- status taxonomy -----------------------------------------------

lbo::RunRecord
okRecord()
{
    lbo::RunRecord r;
    r.status = "ok";
    r.completed = true;
    return r;
}

TEST(ServeStatus, ShedDominatesWhenLargest)
{
    lbo::RunRecord r = okRecord();
    ServeCounters c;
    c.issued = 100;
    c.completed = 60;
    c.shedQueueFull = 30;
    c.deadlineQueue = 10;
    c.uniqueRequests = 100;
    serve::classifyServeStatus(r, c, ServePolicy{});
    EXPECT_EQ(r.status, "shed");
    EXPECT_NE(r.failReason.find("30.0%"), std::string::npos)
        << r.failReason;
}

TEST(ServeStatus, DeadlineWhenSheddingMinor)
{
    lbo::RunRecord r = okRecord();
    ServeCounters c;
    c.issued = 100;
    c.completed = 60;
    c.deadlineQueue = 40;
    c.uniqueRequests = 100;
    serve::classifyServeStatus(r, c, ServePolicy{});
    EXPECT_EQ(r.status, "deadline");
}

TEST(ServeStatus, RetryExhaustedTakesPrecedence)
{
    lbo::RunRecord r = okRecord();
    ServeCounters c;
    c.issued = 200;
    c.completed = 100;
    c.shedQueueFull = 100;
    c.uniqueRequests = 100;
    c.retryExhausted = 20;
    ServePolicy policy;
    policy.maxRetries = 2;
    serve::classifyServeStatus(r, c, policy);
    EXPECT_EQ(r.status, "retry-exhausted");
}

TEST(ServeStatus, HealthyAndFailedRowsUntouched)
{
    lbo::RunRecord healthy = okRecord();
    ServeCounters quiet;
    quiet.issued = 100;
    quiet.completed = 95;
    quiet.deadlineQueue = 5;
    quiet.uniqueRequests = 100;
    serve::classifyServeStatus(healthy, quiet, ServePolicy{});
    EXPECT_EQ(healthy.status, "ok") << "5% expiry is not overload";

    lbo::RunRecord oom = okRecord();
    oom.status = "oom";
    ServeCounters awful;
    awful.issued = 100;
    awful.shedQueueFull = 100;
    serve::classifyServeStatus(oom, awful, ServePolicy{});
    EXPECT_EQ(oom.status, "oom") << "real failures take precedence";
}

// ----- CSV schema ----------------------------------------------------

TEST(ServeRecord, ServeColumnsRoundTrip)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.collector = "G1";
    r.status = "shed";
    r.failReason = "overload: 40.0% attempts shed";
    r.serveSeed = 0xabcdef;
    r.serveIssued = 1000;
    r.serveCompleted = 600;
    r.serveShed = 400;
    r.serveDeadline = 0;
    r.serveRetries = 250;
    r.serveRetryExhausted = 12;
    r.serveLost = 7;
    r.serveHedgeCancelled = 5;
    r.serveRestarts = 2;
    r.serveFailovers = 9;

    lbo::RunRecord parsed;
    ASSERT_TRUE(lbo::RunRecord::fromCsv(r.toCsv(), parsed));
    EXPECT_EQ(parsed.serveSeed, 0xabcdefu);
    EXPECT_EQ(parsed.serveIssued, 1000u);
    EXPECT_EQ(parsed.serveCompleted, 600u);
    EXPECT_EQ(parsed.serveShed, 400u);
    EXPECT_EQ(parsed.serveDeadline, 0u);
    EXPECT_EQ(parsed.serveRetries, 250u);
    EXPECT_EQ(parsed.serveRetryExhausted, 12u);
    EXPECT_EQ(parsed.serveLost, 7u);
    EXPECT_EQ(parsed.serveHedgeCancelled, 5u);
    EXPECT_EQ(parsed.serveRestarts, 2u);
    EXPECT_EQ(parsed.serveFailovers, 9u);
    EXPECT_EQ(parsed.status, "shed");
    EXPECT_EQ(parsed.toCsv(), r.toCsv());
}

TEST(ServeRecord, PreRecoveryServeWidthStillParses)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.serveIssued = 500;
    r.serveLost = 9; // must NOT survive a pre-recovery round trip
    r.serveRestarts = 2;
    using Layout = lbo::RunRecord::CsvLayout;
    for (std::size_t width : lbo::RunRecord::csvWidths()) {
        if (width < lbo::RunRecord::csvWidth(Layout::Serve))
            continue;
        lbo::RunRecord parsed;
        ASSERT_TRUE(lbo::RunRecord::fromCsv(
            test::csvPrefix(r.toCsv(), width), parsed));
        EXPECT_EQ(parsed.serveIssued, 500u);
        bool recovery = width >= lbo::RunRecord::csvWidth(Layout::Recovery);
        EXPECT_EQ(parsed.serveLost, recovery ? 9u : 0u)
            << "pre-recovery serve rows read as recovery-free";
        EXPECT_EQ(parsed.serveRestarts, recovery ? 2u : 0u);
    }
}

TEST(ServeRecord, LegacyPhaseWidthStillParses)
{
    lbo::RunRecord r;
    r.bench = "jme";
    r.serveIssued = 77; // must NOT survive a pre-serve round trip
    for (std::size_t width : lbo::RunRecord::csvWidths()) {
        if (width >= lbo::RunRecord::csvWidth(
                         lbo::RunRecord::CsvLayout::Serve))
            continue;
        lbo::RunRecord parsed;
        ASSERT_TRUE(lbo::RunRecord::fromCsv(
            test::csvPrefix(r.toCsv(), width), parsed));
        EXPECT_EQ(parsed.bench, "jme");
        EXPECT_EQ(parsed.serveIssued, 0u) << "legacy rows read as non-serving";
    }
}

// ----- busy windows --------------------------------------------------

TEST(ServeBusyWindows, PadsMergesAndFilters)
{
    metrics::RunMetrics m;
    m.gcLog.push_back({"young", 100'000, 1'000});
    m.gcLog.push_back({"young", 130'000, 1'000});       // merges (pad)
    m.gcLog.push_back({"concurrent-cycle", 300'000, 50'000}); // not busy
    m.gcLog.push_back({"alloc-stall", 900'000, 2'000});
    serve::BusyWindows w = serve::busyWindowsFromLog(m, 50'000);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0].first, 50'000u);
    EXPECT_EQ(w[0].second, 181'000u);
    EXPECT_EQ(w[1].first, 850'000u);
    EXPECT_EQ(w[1].second, 952'000u);
}

// ----- fleet routing and codec ---------------------------------------

TEST(ServeFleet, BlindRoutesRoundRobin)
{
    serve::FleetConfig config;
    config.instances = 3;
    config.balancer = serve::Balancer::Blind;
    std::vector<Ticks> schedule = {10, 20, 30, 40, 50, 60, 70};
    auto routed = serve::routeArrivals(config, schedule);
    ASSERT_EQ(routed.size(), 3u);
    EXPECT_EQ(routed[0], (std::vector<Ticks>{10, 40, 70}));
    EXPECT_EQ(routed[1], (std::vector<Ticks>{20, 50}));
    EXPECT_EQ(routed[2], (std::vector<Ticks>{30, 60}));
}

TEST(ServeFleet, AwareSkipsAdvertisedBusyWindows)
{
    serve::FleetConfig config;
    config.instances = 2;
    config.balancer = serve::Balancer::Aware;
    config.adverts.resize(2);
    config.adverts[0].emplace_back(0, 100); // instance 0 busy t<100
    std::vector<Ticks> schedule = {10, 50, 99, 150};
    auto routed = serve::routeArrivals(config, schedule);
    EXPECT_EQ(routed[1], (std::vector<Ticks>{10, 50, 99}))
        << "arrivals inside instance 0's busy window divert";
    EXPECT_EQ(routed[0], (std::vector<Ticks>{150}))
        << "after the window, least-assigned wins";
}

TEST(ServeFleet, AwareFallsBackWhenAllBusy)
{
    serve::FleetConfig config;
    config.instances = 2;
    config.balancer = serve::Balancer::Aware;
    config.adverts.resize(2);
    config.adverts[0].emplace_back(0, 100);
    config.adverts[1].emplace_back(0, 100);
    auto routed = serve::routeArrivals(config, {10, 20});
    EXPECT_EQ(routed[0].size() + routed[1].size(), 2u)
        << "an all-busy fleet still takes every request";
}

TEST(ServeFleet, ResultCodecRoundTrips)
{
    serve::ServeResult r;
    r.record.bench = "jme";
    r.record.collector = "Serial";
    r.record.status = "shed";
    r.counters.issued = 12;
    r.counters.completed = 4;
    r.counters.shedQueueFull = 6;
    r.counters.lost = 1;
    r.counters.hedgeCancelled = 1;
    r.counters.uniqueRequests = 12;
    r.escalations[serve::GcLadder::Full] = 3;
    r.horizonNs = 123'456;
    r.metered.record(1000);
    r.metered.record(2000);
    r.simple.record(500);
    r.busyWindows.emplace_back(10, 20);
    r.busyWindows.emplace_back(40, 80);

    serve::ServeResult back;
    ASSERT_TRUE(serve::decodeServeResult(serve::encodeServeResult(r),
                                         back));
    EXPECT_EQ(back.record.toCsv(), r.record.toCsv());
    EXPECT_EQ(back.counters.issued, 12u);
    EXPECT_EQ(back.counters.shedQueueFull, 6u);
    EXPECT_EQ(back.counters.lost, 1u);
    EXPECT_EQ(back.counters.hedgeCancelled, 1u);
    EXPECT_EQ(back.escalations[serve::GcLadder::Full], 3u);
    EXPECT_EQ(back.horizonNs, 123'456u);
    EXPECT_EQ(back.metered.count(), 2u);
    EXPECT_EQ(back.simple.count(), 1u);
    EXPECT_EQ(back.busyWindows, r.busyWindows);

    // Bucket representatives may shift once on the first export
    // (values snap to bucket bounds); after that the codec must be a
    // fixed point, which is what --jobs determinism rests on.
    serve::ServeResult twice;
    ASSERT_TRUE(serve::decodeServeResult(serve::encodeServeResult(back),
                                         twice));
    EXPECT_EQ(serve::encodeServeResult(twice),
              serve::encodeServeResult(back));
    EXPECT_EQ(twice.metered.percentile(99), back.metered.percentile(99));

    serve::ServeResult sink;
    EXPECT_FALSE(serve::decodeServeResult("CSV garbage\n", sink));
    std::string truncated = serve::encodeServeResult(r);
    truncated.resize(truncated.size() - 4); // drop "END\n"
    EXPECT_FALSE(serve::decodeServeResult(truncated, sink))
        << "payloads without the END sentinel are incomplete";
}

TEST(ServeFleet, CodecRejectsEveryTruncation)
{
    // A crashed child can hand the parent any prefix of its payload.
    // Every proper prefix must decode false — never a quietly-partial
    // result — so the supervisor's synthesized crash record is the
    // only path such a child can take.
    serve::ServeResult r;
    r.record.bench = "jme";
    r.record.collector = "G1";
    r.record.status = "ok";
    r.counters.issued = 5;
    r.counters.completed = 5;
    r.counters.uniqueRequests = 5;
    r.horizonNs = 42;
    r.metered.record(1000);
    r.busyWindows.emplace_back(10, 20);
    const std::string whole = serve::encodeServeResult(r);
    for (std::size_t len = 0; len < whole.size(); ++len) {
        serve::ServeResult sink;
        EXPECT_FALSE(
            serve::decodeServeResult(whole.substr(0, len), sink))
            << "prefix of length " << len << " decoded as complete";
    }
    serve::ServeResult ok;
    ASSERT_TRUE(serve::decodeServeResult(whole, ok));
}

TEST(ServeFleet, CodecRejectsCorruptLines)
{
    serve::ServeResult r;
    r.record.bench = "jme";
    r.counters.issued = 3;
    r.counters.completed = 3;
    r.counters.uniqueRequests = 3;
    const std::string whole = serve::encodeServeResult(r);

    // Damage one line at a time: drop the COUNTERS line entirely, or
    // scribble over the CSV line. Both lose required sections.
    std::istringstream in(whole);
    std::string line;
    std::string without_counters;
    while (std::getline(in, line)) {
        if (line.rfind("COUNTERS ", 0) == 0)
            continue;
        without_counters += line + "\n";
    }
    serve::ServeResult sink;
    EXPECT_FALSE(serve::decodeServeResult(without_counters, sink))
        << "a payload missing its COUNTERS section is incomplete";

    std::string bad_csv = whole;
    bad_csv.replace(0, 4, "~~~~");
    EXPECT_FALSE(serve::decodeServeResult(bad_csv, sink))
        << "a mangled CSV row must not decode";
}

// ----- end-to-end determinism ----------------------------------------

serve::ServeConfig
smallServeConfig()
{
    serve::ServeConfig config;
    config.spec = wl::findSpec("jme");
    config.collector = gc::CollectorKind::Serial;
    // Fixed heap: tests skip the min-heap measurement sweep.
    config.heapBytes = 8 * MiB;
    config.heapFactor = 0.0;
    config.arrival.requests = 200;
    config.arrival.loadFactor = 1.5;
    config.policy.queueCap = 8;
    config.policy.deadlineNs = 2'000'000;
    config.policy.maxRetries = 2;
    return config;
}

TEST(ServeFleet, SynthesizedCrashRecordConserves)
{
    serve::ServeConfig config = smallServeConfig();
    config.explicitArrivals = {100, 200, 300};
    config.arrivalsExplicit = true;
    serve::ServeResult r =
        serve::synthesizeCrashResult(config, "spawn-failed");
    EXPECT_EQ(r.record.status, "crash");
    EXPECT_EQ(r.record.signature, "spawn-failed@fleet-child");
    EXPECT_EQ(r.counters.issued, 3u);
    EXPECT_EQ(r.counters.lost, 3u);
    EXPECT_EQ(r.counters.completed, 0u);
    EXPECT_TRUE(r.counters.conserves());
    // The synthesized payload must survive the wire like any other.
    serve::ServeResult back;
    ASSERT_TRUE(
        serve::decodeServeResult(serve::encodeServeResult(r), back));
    EXPECT_EQ(back.counters.lost, 3u);
    EXPECT_EQ(back.record.status, "crash");
}

TEST(ServeRun, SameSeedsSameCsvBytes)
{
    serve::ServeConfig config = smallServeConfig();
    serve::ServeResult a = serve::runServe(config);
    serve::ServeResult b = serve::runServe(config);
    EXPECT_EQ(a.record.toCsv(), b.record.toCsv());
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.busyWindows, b.busyWindows);
    EXPECT_TRUE(a.counters.conserves());
    EXPECT_GT(a.counters.issued, 0u);
    EXPECT_EQ(a.record.serveIssued, a.counters.issued);
    EXPECT_EQ(a.record.serveCompleted, a.counters.completed);
}

TEST(ServeRun, MeteredDominatesSimple)
{
    serve::ServeConfig config = smallServeConfig();
    serve::ServeResult r = serve::runServe(config);
    ASSERT_GT(r.counters.completed, 0u);
    EXPECT_GE(r.metered.percentile(99), r.simple.percentile(99))
        << "metered latency folds in queueing on top of service time";
}

TEST(ServeFleet, PooledMatchesInProcessByteForByte)
{
    serve::FleetConfig config;
    config.base = smallServeConfig();
    config.instances = 4;
    config.balancer = serve::Balancer::Aware;
    config.jobs = 1;
    serve::FleetResult sequential = serve::runFleet(config);
    config.jobs = 4;
    serve::FleetResult pooled = serve::runFleet(config);

    ASSERT_EQ(sequential.instances.size(), pooled.instances.size());
    for (std::size_t i = 0; i < sequential.instances.size(); ++i) {
        EXPECT_EQ(sequential.instances[i].record.toCsv(),
                  pooled.instances[i].record.toCsv())
            << "instance " << i;
    }
    EXPECT_EQ(sequential.counters.issued, pooled.counters.issued);
    EXPECT_EQ(sequential.counters.completed, pooled.counters.completed);
    EXPECT_EQ(sequential.metered.percentile(99.99),
              pooled.metered.percentile(99.99));
    EXPECT_EQ(sequential.horizonNs, pooled.horizonNs);
    EXPECT_TRUE(pooled.counters.conserves());
}

} // namespace
} // namespace distill
