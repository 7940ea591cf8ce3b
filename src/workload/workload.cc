#include "workload/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serial.hh"

namespace adaptsim::workload
{

namespace
{

/** FNV-1a over everything a workload's µop stream depends on. */
std::uint64_t
identityOf(const std::string &name, const std::vector<Segment> &segments,
           std::uint64_t seed)
{
    std::string bytes;
    putString(bytes, name);
    putU64(bytes, seed);
    for (const auto &seg : segments) {
        const KernelParams &k = seg.kernel;
        putString(bytes, k.name);
        putU64(bytes, seg.length);
        for (double v : {k.fracLoad, k.fracStore, k.fracFpAlu,
                         k.fracFpMul, k.fracFpDiv, k.fracIntMul,
                         k.fracIntDiv, k.shortDepFrac, k.branchNoise,
                         k.hardBranchFrac, k.loopBranchFrac,
                         k.randomAccessFrac, k.pointerChaseFrac})
            putDouble(bytes, v);
        for (std::uint64_t v :
             {std::uint64_t(k.numBlocks), std::uint64_t(k.blockSize),
              std::uint64_t(k.loopTripCount), k.dataWorkingSet,
              std::uint64_t(k.strideBytes)})
            putU64(bytes, v);
    }
    return fnv1a64(bytes.data(), bytes.size());
}

} // namespace

Workload::Workload(std::string name, std::vector<Segment> segments,
                   std::uint64_t seed)
    : name_(std::move(name)),
      uid_(identityOf(name_, segments, seed)),
      segments_(std::move(segments)), totalLength_(0), seed_(seed)
{
    if (segments_.empty())
        fatal("workload ", name_, " has no segments");
    segmentStart_.reserve(segments_.size());
    for (const auto &seg : segments_) {
        if (seg.length == 0)
            fatal("workload ", name_, " has a zero-length segment");
        segmentStart_.push_back(totalLength_);
        totalLength_ += seg.length;
    }
}

std::uint32_t
Workload::kernelIdOf(std::size_t segment_index) const
{
    const std::string &kname = segments_[segment_index].kernel.name;
    for (std::size_t i = 0; i < segment_index; ++i) {
        if (segments_[i].kernel.name == kname)
            return kernelIdOf(i);
    }
    return static_cast<std::uint32_t>(segment_index);
}

std::vector<isa::MicroOp>
Workload::generate(std::uint64_t start, std::uint64_t count) const
{
    Cursor cursor;
    return generate(start, count, cursor);
}

std::vector<isa::MicroOp>
Workload::generate(std::uint64_t start, std::uint64_t count,
                   Cursor &cursor) const
{
    std::vector<isa::MicroOp> out;
    out.reserve(count);

    std::uint64_t pos = start % totalLength_;
    while (out.size() < count) {
        // Locate the segment containing pos.
        const auto it = std::upper_bound(segmentStart_.begin(),
                                         segmentStart_.end(), pos);
        const std::size_t seg_idx =
            static_cast<std::size_t>(it - segmentStart_.begin()) - 1;
        const Segment &seg = segments_[seg_idx];
        const std::uint64_t into = pos - segmentStart_[seg_idx];
        const std::uint64_t remaining_in_seg = seg.length - into;
        const std::uint64_t want = count - out.size();
        const std::uint64_t take = std::min(want, remaining_in_seg);

        // Resume only mid-segment: at a segment start the stream
        // restarts (repeated kernels replay from the top), and a
        // position mid-segment pins down the segment.
        const bool resume = into > 0 && cursor.kernel &&
                            cursor.wid == uid_ && cursor.pos == pos;
        if (!resume) {
            // Kernels are seeded by identity so that repeated
            // occurrences of the same kernel replay the same code.
            const std::uint32_t kid = kernelIdOf(seg_idx);
            cursor.wid = uid_;
            cursor.kernel.emplace(seg.kernel, kid,
                                  seed_ ^ (std::uint64_t(kid) * 0x9e37UL));
            cursor.kernel->skip(into);
            cursor.skipped += into;
        }
        for (std::uint64_t i = 0; i < take; ++i)
            out.push_back(cursor.kernel->next());

        pos = (pos + take) % totalLength_;
        cursor.pos = pos;
    }
    return out;
}

KernelParams
Workload::averageParams() const
{
    KernelParams avg;
    avg.name = name_ + ".avg";
    avg.fracLoad = avg.fracStore = avg.fracFpAlu = avg.fracFpMul = 0.0;
    avg.fracFpDiv = avg.fracIntMul = avg.fracIntDiv = 0.0;
    avg.shortDepFrac = 0.0;
    avg.randomAccessFrac = 0.0;
    avg.pointerChaseFrac = 0.0;
    avg.branchNoise = 0.0;
    avg.hardBranchFrac = 0.0;
    avg.loopBranchFrac = 0.0;
    double ws = 0.0;
    double block_size = 0.0;

    const double total = static_cast<double>(totalLength_);
    for (const auto &seg : segments_) {
        const double w = static_cast<double>(seg.length) / total;
        const KernelParams &k = seg.kernel;
        avg.fracLoad += w * k.fracLoad;
        avg.fracStore += w * k.fracStore;
        avg.fracFpAlu += w * k.fracFpAlu;
        avg.fracFpMul += w * k.fracFpMul;
        avg.fracFpDiv += w * k.fracFpDiv;
        avg.fracIntMul += w * k.fracIntMul;
        avg.fracIntDiv += w * k.fracIntDiv;
        avg.shortDepFrac += w * k.shortDepFrac;
        avg.randomAccessFrac += w * k.randomAccessFrac;
        avg.pointerChaseFrac += w * k.pointerChaseFrac;
        avg.branchNoise += w * k.branchNoise;
        avg.hardBranchFrac += w * k.hardBranchFrac;
        avg.loopBranchFrac += w * k.loopBranchFrac;
        ws += w * static_cast<double>(k.dataWorkingSet);
        block_size += w * k.blockSize;
    }
    avg.dataWorkingSet = static_cast<std::uint64_t>(ws);
    avg.blockSize = std::max(2, static_cast<int>(block_size));
    return avg;
}

} // namespace adaptsim::workload
