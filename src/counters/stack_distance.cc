#include "counters/stack_distance.hh"

#include "counters/reuse_distance.hh"

namespace adaptsim::counters
{

StackDistanceMonitor::StackDistanceMonitor(int line_bytes)
    : lineBytes_(line_bytes),
      hist_(Histogram::Binning::Log2, reuseBins)
{
    tree_.resize(1024, 0);
}

void
StackDistanceMonitor::fenwickAdd(std::size_t i, int delta)
{
    for (; i < tree_.size(); i += i & (~i + 1))
        tree_[i] += delta;
}

std::int64_t
StackDistanceMonitor::fenwickSum(std::size_t i) const
{
    std::int64_t sum = 0;
    if (i >= tree_.size())
        i = tree_.size() - 1;
    for (; i > 0; i -= i & (~i + 1))
        sum += tree_[i];
    return sum;
}

void
StackDistanceMonitor::access(Addr addr)
{
    ++accesses_;
    const Addr block = addr / lineBytes_;
    const std::uint64_t now = accesses_;   // 1-based time stamp

    if (now >= tree_.size()) {
        // Growing a Fenwick tree invalidates its new high-order
        // nodes, so rebuild from the live marks while lastTime_ is
        // consistent (every tracked block has exactly one mark).
        std::size_t grown = tree_.size();
        while (now >= grown)
            grown *= 2;
        tree_.assign(grown, 0);
        for (const auto &entry : lastTime_)
            fenwickAdd(entry.second, +1);
    }

    auto [it, inserted] = lastTime_.try_emplace(block, now);
    if (inserted) {
        ++cold_;
        fenwickAdd(now, +1);
        return;
    }

    const std::uint64_t prev = it->second;
    // Distinct blocks touched after prev: marked times in (prev, now).
    const std::int64_t distance =
        fenwickSum(now - 1) - fenwickSum(prev);
    hist_.add(static_cast<std::uint64_t>(distance));

    fenwickAdd(prev, -1);
    fenwickAdd(now, +1);
    it->second = now;
}

void
StackDistanceMonitor::clear()
{
    hist_.clear();
    lastTime_.clear();
    tree_.assign(1024, 0);
    cold_ = 0;
    accesses_ = 0;
}

} // namespace adaptsim::counters
