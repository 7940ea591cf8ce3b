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

} // namespace adaptsim::uarch
