/**
 * @file
 * Shared helpers for runtime-level tests: tiny workload programs and
 * a one-call runner.
 */

#ifndef DISTILL_TESTS_TEST_UTIL_HH
#define DISTILL_TESTS_TEST_UTIL_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gc/collectors.hh"
#include "heap/layout.hh"
#include "rt/mutator.hh"
#include "rt/program.hh"
#include "rt/runtime.hh"

namespace distill::test
{

/**
 * The first @p width fields of CSV line @p line: how a row of an
 * older lbo::RunRecord layout looks (every layout is a prefix of the
 * current one).
 */
inline std::string
csvPrefix(const std::string &line, std::size_t width)
{
    std::size_t end = 0;
    for (std::size_t i = 0; i < width; ++i) {
        end = line.find(',', i == 0 ? 0 : end + 1);
        if (end == std::string::npos)
            return line;
    }
    return line.substr(0, end);
}

/**
 * A program that allocates @p count objects, keeps the last
 * @p window of them as roots, and optionally wires each object to its
 * predecessor in the window.
 */
class AllocProgram : public rt::MutatorProgram
{
  public:
    AllocProgram(std::size_t count, std::size_t window, bool wire,
                 std::uint32_t num_refs = 2,
                 std::uint64_t payload = 32)
        : target_(count),
          roots_(window, nullRef),
          wire_(wire),
          numRefs_(num_refs),
          payload_(payload)
    {
    }

    rt::StepResult
    step(rt::Mutator &mutator) override
    {
        if (done_ >= target_)
            return rt::StepResult::Done;
        Addr obj = mutator.allocate(numRefs_, payload_);
        if (mutator.wasBlocked())
            return rt::StepResult::Running;
        if (wire_ && numRefs_ > 0) {
            // Wire pairs (odd object -> previous even object) so dead
            // clusters stay bounded, and touch a rooted object so
            // read barriers see traffic.
            if (done_ % 2 == 1 && lastAlloc_ != nullRef)
                mutator.storeRef(obj, 0, lastAlloc_);
            Addr touch = roots_[(done_ * 7) % roots_.size()];
            if (touch != nullRef)
                (void)mutator.loadRef(touch, 0);
        }
        roots_[done_ % roots_.size()] = obj;
        lastAlloc_ = obj;
        ++done_;
        mutator.compute(200);
        return rt::StepResult::Running;
    }

    void
    forEachRootSlot(const rt::RootSlotVisitor &visit) override
    {
        for (Addr &slot : roots_)
            visit(slot);
        visit(lastAlloc_);
    }

    std::size_t done_ = 0;
    std::size_t target_;
    std::vector<Addr> roots_;
    Addr lastAlloc_ = nullRef;
    bool wire_;
    std::uint32_t numRefs_;
    std::uint64_t payload_;
};

/** Build a single-thread workload from a ready-made program. */
inline rt::WorkloadInstance
singleProgram(std::unique_ptr<rt::MutatorProgram> program)
{
    rt::WorkloadInstance instance;
    instance.programs.push_back(std::move(program));
    return instance;
}

/** Run a workload under a collector; returns the runtime's metrics. */
inline metrics::RunMetrics
runWith(gc::CollectorKind kind, std::uint64_t heap_regions,
        rt::WorkloadInstance workload, std::uint64_t seed = 1)
{
    rt::RunConfig config;
    config.heapBytes = heap_regions * heap::regionSize;
    config.seed = seed;
    rt::Runtime runtime(config, gc::makeCollector(kind),
                        std::move(workload));
    runtime.execute();
    return runtime.agent().metrics();
}

} // namespace distill::test

#endif // DISTILL_TESTS_TEST_UTIL_HH
