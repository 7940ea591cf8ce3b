/**
 * @file
 * Set-associative cache tag model with true-LRU replacement.
 *
 * Only tags are modelled (trace-driven timing simulation never needs
 * data).  Timing is produced by the hierarchy, which composes L1I/L1D
 * with the unified L2.  access() is defined here so it inlines into
 * the pipeline loop.
 */

#ifndef ADAPTSIM_UARCH_CACHE_HH
#define ADAPTSIM_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace adaptsim::uarch
{

/** One level of set-associative cache (tags + LRU only). */
class Cache
{
  public:
    /**
     * @param bytes total capacity.
     * @param assoc ways per set.
     * @param line_bytes line size (power of two).
     */
    Cache(std::uint64_t bytes, int assoc, int line_bytes);

    /** Result of an access. */
    struct AccessResult
    {
        bool hit;
        bool writeback;   ///< a dirty victim was evicted
    };

    /**
     * Access @p addr; on a miss the line is filled (evicting LRU).
     * @p write marks the line dirty.
     */
    AccessResult
    access(Addr addr, bool write)
    {
        const Addr tag = blockAddr(addr);
        Line *base = &lines_[setIndex(addr) * assoc_];

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

    /** Probe without fill or LRU update (used by monitors). */
    bool probe(Addr addr) const;

    std::uint64_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    std::uint64_t sizeBytes() const { return bytes_; }

    /** Set index of @p addr in this geometry. */
    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }

    /** Line-granular block address of @p addr. */
    Addr blockAddr(Addr addr) const
    {
        return addr >> lineShift_;
    }

    /** Same geometry, tags, dirty bits and LRU state. */
    bool operator==(const Cache &) const = default;

  private:
    struct Line
    {
        Addr tag = invalidAddr;
        std::uint32_t lruStamp = 0;
        bool dirty = false;

        bool operator==(const Line &) const = default;
    };

    std::uint64_t bytes_;
    int assoc_;
    int lineShift_;   ///< log2 of the line size (shift, never divide)
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint32_t clock_ = 0;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_CACHE_HH
