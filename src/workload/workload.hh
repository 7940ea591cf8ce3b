/**
 * @file
 * A synthetic program: a schedule of kernels with explicit phase
 * structure, standing in for one SPEC CPU 2000 benchmark.
 */

#ifndef ADAPTSIM_WORKLOAD_WORKLOAD_HH
#define ADAPTSIM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/micro_op.hh"
#include "workload/kernel.hh"

namespace adaptsim::workload
{

/** One scheduled stretch of a kernel's execution. */
struct Segment
{
    KernelParams kernel;       ///< behaviour during the segment
    std::uint64_t length;      ///< dynamic µops in the segment
};

/**
 * A deterministic synthetic program.
 *
 * Each distinct kernel name within the program denotes one piece of
 * static code: every occurrence replays the same layout and stream, so
 * repeated segments yield genuinely recurring phases (as loops do in
 * real programs).
 */
class Workload
{
  public:
    /**
     * Resumable generation state for interval-by-interval walks.
     *
     * Holds the live kernel of the last generate() call through it,
     * so the next call that starts where this one stopped continues
     * the stream instead of replaying its segment from the start.
     * A plain copyable value; a default-constructed cursor resumes
     * nothing.
     */
    struct Cursor
    {
        std::uint64_t wid = 0;      ///< uid() of the workload walked
        std::uint64_t pos = 0;      ///< next position (mod length)
        std::optional<Kernel> kernel; ///< live stream at pos
        /// µops replayed by reseeks through this cursor (cumulative)
        std::uint64_t skipped = 0;
    };

    /**
     * @param name program name (SPEC-2000 style).
     * @param segments the phase schedule; total length is their sum.
     * @param seed master seed for all kernel streams.
     */
    Workload(std::string name, std::vector<Segment> segments,
             std::uint64_t seed);

    const std::string &name() const { return name_; }

    /**
     * Stable 64-bit identity: FNV-1a over the name, the seed and
     * every segment's kernel parameters and length, i.e. everything
     * the µop stream depends on.  Cheap enough to key per-lookup
     * cache structures without string building.
     */
    std::uint64_t uid() const { return uid_; }

    /** Total dynamic µop count of the program. */
    std::uint64_t totalInstructions() const { return totalLength_; }

    /** Number of schedule segments. */
    std::size_t numSegments() const { return segments_.size(); }

    const std::vector<Segment> &segments() const { return segments_; }

    /**
     * Generate @p count µops starting at absolute dynamic position
     * @p start (positions past the end wrap around the schedule).
     */
    std::vector<isa::MicroOp> generate(std::uint64_t start,
                                       std::uint64_t count) const;

    /**
     * As generate(start, count), continuing @p cursor's live kernel
     * when @p start is where the cursor stopped on this workload;
     * otherwise reseeking (a fresh kernel replayed from its segment
     * start).  A segment boundary always starts a fresh kernel.  The
     * output does not depend on the cursor's prior state.
     */
    std::vector<isa::MicroOp> generate(std::uint64_t start,
                                       std::uint64_t count,
                                       Cursor &cursor) const;

    /**
     * Length-weighted average of the kernel parameters; used to drive
     * the wrong-path generator with a plausible instruction mix.
     */
    KernelParams averageParams() const;

    /** Master seed (exposed so wrong-path streams can derive). */
    std::uint64_t seed() const { return seed_; }

  private:
    /** Stable kernel identity: index of first segment with the name. */
    std::uint32_t kernelIdOf(std::size_t segment_index) const;

    std::string name_;
    std::uint64_t uid_;
    std::vector<Segment> segments_;
    std::vector<std::uint64_t> segmentStart_; ///< cumulative offsets
    std::uint64_t totalLength_;
    std::uint64_t seed_;
};

} // namespace adaptsim::workload

#endif // ADAPTSIM_WORKLOAD_WORKLOAD_HH
