#include "counters/reuse_distance.hh"

#include "common/logging.hh"

namespace adaptsim::counters
{

ReuseDistanceMonitor::ReuseDistanceMonitor()
    : hist_(Histogram::Binning::Log2, reuseBins)
{
}

void
ReuseDistanceMonitor::access(std::uint64_t key)
{
    accessAt(key, accessCount_ + 1);
}

void
ReuseDistanceMonitor::accessAt(std::uint64_t key,
                               std::uint64_t position)
{
    ++accessCount_;
    auto [it, inserted] = lastAccess_.try_emplace(key, position);
    if (!inserted) {
        hist_.add(position - it->second);
        it->second = position;
    }
}

void
ReuseDistanceMonitor::clear()
{
    hist_.clear();
    lastAccess_.clear();
    accessCount_ = 0;
}

SetReuseMonitor::SetReuseMonitor(std::uint64_t num_sets,
                                 int line_bytes)
    : numSets_(num_sets), lineBytes_(line_bytes)
{
    if (num_sets == 0 || (num_sets & (num_sets - 1)) != 0)
        fatal("SetReuseMonitor needs a power-of-two set count");
}

void
SetReuseMonitor::access(Addr addr)
{
    monitor_.access((addr / lineBytes_) & (numSets_ - 1));
}

void
SetReuseMonitor::accessAt(Addr addr, std::uint64_t position)
{
    monitor_.accessAt((addr / lineBytes_) & (numSets_ - 1),
                      position);
}

} // namespace adaptsim::counters
