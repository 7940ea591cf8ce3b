#include "uarch/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace adaptsim::uarch
{

Cache::Cache(std::uint64_t bytes, int assoc, int line_bytes)
    : bytes_(bytes), assoc_(assoc),
      lineShift_(std::countr_zero(static_cast<unsigned>(line_bytes))),
      numSets_(bytes / (std::uint64_t(assoc) * line_bytes)),
      lines_(numSets_ * assoc)
{
    if (numSets_ == 0 ||
        std::popcount(numSets_) != 1 ||
        std::popcount(static_cast<unsigned>(line_bytes)) != 1) {
        fatal("cache geometry must give a power-of-two set count: ",
              bytes, "B/", assoc, "way/", line_bytes, "B lines");
    }
}

Cache::AccessResult
Cache::access(Addr addr, bool write)
{
    const Addr tag = blockAddr(addr);
    const std::uint64_t set = setIndex(addr);
    Line *base = &lines_[set * assoc_];

    int victim = 0;
    std::uint32_t oldest = ~0u;
    for (int w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        if (line.tag == tag) {
            line.lruStamp = ++clock_;
            line.dirty = line.dirty || write;
            return {true, false};
        }
        if (line.lruStamp < oldest) {
            oldest = line.lruStamp;
            victim = w;
        }
    }

    Line &line = base[victim];
    const bool writeback = line.dirty && line.tag != invalidAddr;
    line.tag = tag;
    line.lruStamp = ++clock_;
    line.dirty = write;
    return {false, writeback};
}

bool
Cache::probe(Addr addr) const
{
    const Addr tag = blockAddr(addr);
    const std::uint64_t set = setIndex(addr);
    const Line *base = &lines_[set * assoc_];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    clock_ = 0;
}

} // namespace adaptsim::uarch
