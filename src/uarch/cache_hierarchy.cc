#include "uarch/cache_hierarchy.hh"

#include <utility>

#include "common/logging.hh"
#include "power/frequency.hh"

namespace adaptsim::uarch
{

CacheHierarchy::CacheHierarchy(const CoreConfig &cfg, SharedLlc *llc,
                               unsigned core_id)
    : CacheHierarchy(cfg,
                     Cache(cfg.icacheBytes, CoreConfig::l1Assoc,
                           CoreConfig::cacheLineBytes),
                     Cache(cfg.dcacheBytes, CoreConfig::l1Assoc,
                           CoreConfig::cacheLineBytes),
                     Cache(cfg.l2Bytes, CoreConfig::l2Assoc,
                           CoreConfig::cacheLineBytes),
                     llc, core_id)
{
}

CacheHierarchy::CacheHierarchy(const CoreConfig &cfg, Cache icache,
                               Cache dcache, Cache l2)
    : CacheHierarchy(cfg, std::move(icache), std::move(dcache),
                     std::move(l2), nullptr, 0)
{
    if (icache_.sizeBytes() != cfg.icacheBytes ||
        dcache_.sizeBytes() != cfg.dcacheBytes ||
        l2_.sizeBytes() != cfg.l2Bytes) {
        panic("cache levels do not match the configuration: ",
              icache_.sizeBytes(), "/", dcache_.sizeBytes(), "/",
              l2_.sizeBytes(), "B for ", cfg.toString());
    }
}

CacheHierarchy::CacheHierarchy(const CoreConfig &cfg, Cache icache,
                               Cache dcache, Cache l2, SharedLlc *llc,
                               unsigned core_id)
    : cfg_(cfg), icache_(std::move(icache)), dcache_(std::move(dcache)),
      l2_(std::move(l2)), llc_(llc), coreId_(core_id)
{
    // Period ∝ depth + latch overhead (power/frequency.cc), so these
    // integer unit counts give the exact clock-ratio rational.
    const auto overhead =
        static_cast<std::uint64_t>(power::latchOverheadFo4);
    corePeriodUnits_ = std::uint64_t(cfg.depthFo4) + overhead;
    llcPeriodUnits_ =
        std::uint64_t(SharedLlc::referenceDepthFo4) + overhead;
}

int
CacheHierarchy::beyondL2(Addr addr, EventCounts &ev, Cycles now)
{
    if (!llc_) {
        ++ev.memAccesses;
        return cfg_.memLatency;
    }
    ++ev.llcAccesses;
    const auto out = llc_->access(physical(addr), coreId_,
                                  toLlcTicks(timeBase_ + now));
    ev.llcQueueCycles +=
        std::uint64_t(toCoreCycles(out.queueCycles));
    if (!out.hit) {
        ++ev.llcMisses;
        ++ev.memAccesses;
    }
    return toCoreCycles(out.latency);
}

int
CacheHierarchy::fetchAccess(Addr pc, EventCounts &ev, SimObserver *obs,
                            Cycles now)
{
    ++ev.icAccesses;
    if (obs)
        obs->onICacheAccess(pc);
    const auto l1 = icache_.access(pc, false);
    if (l1.hit)
        return cfg_.icacheLatency;

    ++ev.icMisses;
    ++ev.l2Accesses;
    if (obs)
        obs->onL2Access(pc);
    const auto l2 = l2_.access(pc, false);
    if (l2.hit)
        return cfg_.icacheLatency + cfg_.l2Latency;

    ++ev.l2Misses;
    return cfg_.icacheLatency + cfg_.l2Latency +
           beyondL2(pc, ev, now);
}

int
CacheHierarchy::dataAccess(Addr addr, bool write, EventCounts &ev,
                           SimObserver *obs, Cycles now)
{
    ++ev.dcAccesses;
    if (obs)
        obs->onDCacheAccess(addr, write);
    const auto l1 = dcache_.access(addr, write);
    if (l1.hit)
        return cfg_.dcacheLatency;

    ++ev.dcMisses;
    if (l1.writeback)
        ++ev.dcWritebacks;
    ++ev.l2Accesses;
    if (obs)
        obs->onL2Access(addr);
    const auto l2 = l2_.access(addr, l1.writeback);
    if (l2.hit)
        return cfg_.dcacheLatency + cfg_.l2Latency;

    ++ev.l2Misses;
    return cfg_.dcacheLatency + cfg_.l2Latency +
           beyondL2(addr, ev, now);
}

void
CacheHierarchy::warmFetch(Addr pc)
{
    if (!icache_.access(pc, false).hit)
        l2_.access(pc, false);
}

void
CacheHierarchy::warmData(Addr addr, bool write)
{
    const auto l1 = dcache_.access(addr, write);
    if (!l1.hit)
        l2_.access(addr, l1.writeback);
}

} // namespace adaptsim::uarch
