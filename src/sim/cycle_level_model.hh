/**
 * @file
 * The cycle-level backend: uarch::Core behind the PerfModel seam.
 *
 * A session is exactly one uarch::Core — same construction, same
 * run(), and a warm-up equal to Core::warm()'s — so results through
 * the seam are bit-identical to calling the core directly (the
 * golden pipeline matrix test holds through both paths).
 */

#ifndef ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH
#define ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH

#include "sim/perf_model.hh"
#include "uarch/core.hh"

namespace adaptsim::sim
{

/** The detailed out-of-order pipeline as a backend ("cycle"). */
class CycleLevelModel final : public PerfModel
{
  public:
    /** Reserved tag 0: pre-seam cache records stay valid. */
    static constexpr std::uint64_t kCacheTag = 0;

    const char *name() const override { return "cycle"; }
    std::uint64_t cacheTag() const override { return kCacheTag; }

    std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path)
        const override;
};

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_CYCLE_LEVEL_MODEL_HH
