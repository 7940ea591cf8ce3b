#include "uarch/warm.hh"

#include <limits>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::uarch
{

void
warmStructures(CacheHierarchy &caches, BranchPredictor &bpred,
               std::span<const isa::MicroOp> trace)
{
    Addr last_line = invalidAddr;
    for (const auto &op : trace) {
        const Addr line = op.pc / CoreConfig::cacheLineBytes;
        if (line != last_line) {
            caches.warmFetch(op.pc);
            last_line = line;
        }
        if (op.isMem())
            caches.warmData(op.effAddr, op.isStore());
        else if (op.isBranch())
            bpred.warm(op.pc, op.taken);
    }
}

WarmMemo::WarmMemo(Trace trace) : trace_(std::move(trace))
{
    if (!trace_)
        panic("warm memo without a warm trace");
    if (trace_->size() > std::numeric_limits<std::uint32_t>::max())
        panic("warm trace of ", trace_->size(), " µops is too long");
}

void
WarmMemo::build(const CoreConfig &cfg)
{
    // Null where the snapshot already exists: this pass then skips
    // that structure.  try_emplace constructs a snapshot only when
    // it inserts one.
    const auto added = [](auto &map, auto key, auto &&...args) {
        const auto [it, inserted] = map.try_emplace(
            key, std::forward<decltype(args)>(args)...);
        return inserted ? &it->second : nullptr;
    };
    L1Snapshot *icache =
        added(icache_, cfg.icacheBytes, cfg.icacheBytes);
    L1Snapshot *dcache =
        added(dcache_, cfg.dcacheBytes, cfg.dcacheBytes);
    // Each predictor snapshot is only ever warmed on its own half;
    // the other half is the smallest legal one and stays unused.
    BranchPredictor *direction =
        added(direction_, cfg.gshareEntries, cfg.gshareEntries,
              CoreConfig::btbAssoc, CoreConfig::btbAssoc);
    BranchPredictor *targets =
        added(targets_, cfg.btbEntries, 1, cfg.btbEntries,
              CoreConfig::btbAssoc);
    if (!icache && !dcache && !direction && !targets)
        return;

    // warmStructures' loop, split by structure.
    const std::vector<isa::MicroOp> &trace = *trace_;
    Addr last_line = invalidAddr;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const isa::MicroOp &op = trace[i];
        const auto index = static_cast<std::uint32_t>(i);
        if (icache) {
            const Addr line = op.pc / CoreConfig::cacheLineBytes;
            if (line != last_line) {
                if (!icache->cache.access(op.pc, false).hit)
                    icache->misses.push_back({op.pc, index, false});
                last_line = line;
            }
        }
        if (op.isMem()) {
            if (dcache) {
                const auto fill = dcache->cache.access(op.effAddr,
                                                       op.isStore());
                if (!fill.hit) {
                    dcache->misses.push_back(
                        {op.effAddr, index, fill.writeback});
                }
            }
        } else if (op.isBranch()) {
            if (direction)
                direction->warmDirection(op.pc, op.taken);
            if (targets)
                targets->warmTarget(op.pc, op.taken);
        }
    }
}

WarmedStructures
WarmMemo::warm(const CoreConfig &cfg)
{
    OBS_SPAN("uarch/warm");
    const L1Snapshot *icache;
    const L1Snapshot *dcache;
    const BranchPredictor *direction;
    const BranchPredictor *targets;
    {
        MutexLock lock(mutex_);
        build(cfg);
        icache = &icache_.at(cfg.icacheBytes);
        dcache = &dcache_.at(cfg.dcacheBytes);
        direction = &direction_.at(cfg.gshareEntries);
        targets = &targets_.at(cfg.btbEntries);
    }

    // The L2 sees each µop's fetch miss before its data miss.
    Cache l2(cfg.l2Bytes, CoreConfig::l2Assoc,
             CoreConfig::cacheLineBytes);
    auto fetch = icache->misses.begin();
    auto data = dcache->misses.begin();
    const auto fetch_end = icache->misses.end();
    const auto data_end = dcache->misses.end();
    while (fetch != fetch_end || data != data_end) {
        if (data == data_end ||
            (fetch != fetch_end && fetch->op <= data->op)) {
            l2.access(fetch->addr, fetch->write);
            ++fetch;
        } else {
            l2.access(data->addr, data->write);
            ++data;
        }
    }
    return {CacheHierarchy(cfg, icache->cache, dcache->cache,
                           std::move(l2)),
            BranchPredictor(*direction, *targets)};
}

} // namespace adaptsim::uarch
