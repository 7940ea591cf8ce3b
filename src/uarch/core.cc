#include "uarch/core.hh"

#include "obs/obs.hh"

namespace adaptsim::uarch
{

Core::Core(const CoreConfig &cfg,
           workload::WrongPathGenerator &wrong_path,
           SharedLlc *llc, unsigned core_id)
    : cfg_(cfg), caches_(cfg, llc, core_id),
      bpred_(cfg.gshareEntries, cfg.btbEntries,
             CoreConfig::btbAssoc),
      wrongPath_(wrong_path)
{
}

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
            bpred.warmAccess(op.pc, op.taken);
    }
}

void
Core::warm(std::span<const isa::MicroOp> trace)
{
    OBS_SPAN("uarch/warm");
    warmStructures(caches_, bpred_, trace);
}

SimResult
Core::run(std::span<const isa::MicroOp> trace, SimObserver *observer)
{
    OBS_SPAN("uarch/run");
    Pipeline pipeline(cfg_, caches_, bpred_, wrongPath_, observer);
    return pipeline.run(trace);
}

} // namespace adaptsim::uarch
