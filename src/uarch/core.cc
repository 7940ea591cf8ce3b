#include "uarch/core.hh"

#include <utility>

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

Core::Core(const CoreConfig &cfg,
           workload::WrongPathGenerator &wrong_path,
           WarmedStructures warmed)
    : cfg_(cfg), caches_(std::move(warmed.caches)),
      bpred_(std::move(warmed.bpred)), wrongPath_(wrong_path)
{
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
