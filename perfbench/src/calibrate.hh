/**
 * @file
 * Host-speed calibration for the benchmark of record.
 *
 * A shared cloud host runs the simulator at speeds that change over
 * seconds to minutes: in its slow episodes every unit of simulator
 * work takes up to twice as long, with no CPU time stolen. Two small
 * kernels slow down roughly in step: an allocator loop (malloc, touch
 * and free of a few thousand small blocks) and a hash map of 60 k
 * entries; in some episodes the first lags the simulator and the
 * second overshoots it, so the calibration kernel runs both, each
 * taking about half its time. A register-only loop or a large pointer
 * chase barely slows down at all. The benchmark runs the kernel
 * between units of work and rescales each unit's host time by the
 * kernel times measured just before and just after it: the unit's
 * time on a host that runs the kernel in referenceKernelSeconds. The
 * kernel is the benchmark's own code and never changes with the
 * library, so a library change still moves the rescaled times in
 * full.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include "base/host_timer.hh"

namespace perfbench
{

/**
 * Host seconds of one calibration kernel run on the reference host;
 * this defines a reference second. Close to the kernel's time on the
 * 4-vCPU Xeon (Sapphire Rapids) cloud VM the benchmark was tuned on,
 * outside its slow episodes.
 */
constexpr double referenceKernelSeconds = 0.004;

/** Run the calibration kernel once; its host seconds. */
double calibrationKernelSeconds();

/**
 * @p seconds of host time rescaled to reference speed, given kernel
 * times @p before and @p after measured around it (their mean is the
 * host's speed during the unit). Non-positive kernel times give NaN.
 */
double toReferenceSeconds(double seconds, double before, double after);

/** Median of @p samples kernel runs; @p samples is at least 1. */
double calibrationKernelSeconds(unsigned samples);

/**
 * Times consecutive units of work, calibrating between them: each
 * calibration point is the median of @p samples kernel runs.
 * Construction calibrates once; each lap() ends a unit, calibrates
 * again and restarts the unit clock, so kernel time never counts as
 * work.
 */
class CalibratedClock
{
  public:
    explicit CalibratedClock(unsigned samples = 1);

    /** End the current unit and start the next. */
    void lap();

    /** Host seconds of the finished units. */
    double raw() const { return raw_; }

    /** Reference seconds of the finished units. */
    double reference() const { return reference_; }

  private:
    unsigned samples_;
    distill::HostTimer unit_;
    double kernelBefore_ = 0;
    double raw_ = 0;
    double reference_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
