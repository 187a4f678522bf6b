#include "calibrate.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <vector>

namespace perfbench
{

namespace
{

/** Keeps the kernel's result observable. */
volatile std::uint64_t kernelSink;

/** Blocks live at once; each pass allocates, touches and frees them. */
constexpr std::size_t kernelBlocks = 4096;

/** Allocator passes per kernel run. */
constexpr unsigned kernelPasses = 15;

/** Hash-map keys per kernel run; each is looked up twice, half miss. */
constexpr std::uint64_t kernelKeys = 60'000;

} // namespace

double
calibrationKernelSeconds()
{
    distill::HostTimer clock;
    std::vector<unsigned char *> blocks(kernelBlocks);
    std::uint64_t sum = 0;
    for (unsigned pass = 0; pass < kernelPasses; ++pass) {
        for (std::size_t i = 0; i < kernelBlocks; ++i) {
            // Mixed small sizes, 16 to 216 bytes.
            blocks[i] = static_cast<unsigned char *>(
                std::malloc(16 + (i * 37) % 201));
            if (blocks[i] == nullptr)
                std::abort();
            blocks[i][0] = static_cast<unsigned char>(i);
        }
        for (std::size_t i = 0; i < kernelBlocks; ++i)
            sum += blocks[(i * 7) % kernelBlocks][0];
        for (unsigned char *block : blocks)
            std::free(block);
    }
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(1u << 16);
    for (std::uint64_t i = 0; i < kernelKeys; ++i)
        map[i * 2654435761u] = i;
    for (std::uint64_t i = 0; i < 2 * kernelKeys; ++i) {
        auto it = map.find(i * 2654435761u);
        if (it != map.end())
            sum += it->second;
    }
    kernelSink = sum;
    return clock.elapsedSec();
}

double
calibrationKernelSeconds(unsigned samples)
{
    std::vector<double> runs;
    for (unsigned i = 0; i < std::max(samples, 1u); ++i)
        runs.push_back(calibrationKernelSeconds());
    std::nth_element(runs.begin(), runs.begin() + runs.size() / 2,
                     runs.end());
    return runs[runs.size() / 2];
}

double
toReferenceSeconds(double seconds, double before, double after)
{
    if (!(before > 0) || !(after > 0))
        return std::nan("");
    return seconds * referenceKernelSeconds / (0.5 * (before + after));
}

CalibratedClock::CalibratedClock(unsigned samples)
    : samples_(samples), kernelBefore_(calibrationKernelSeconds(samples))
{
    unit_.restart();
}

void
CalibratedClock::lap()
{
    double seconds = unit_.elapsedSec();
    double kernelAfter = calibrationKernelSeconds(samples_);
    raw_ += seconds;
    reference_ += toReferenceSeconds(seconds, kernelBefore_, kernelAfter);
    kernelBefore_ = kernelAfter;
    unit_.restart();
}

} // namespace perfbench
