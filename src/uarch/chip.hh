/**
 * @file
 * Multi-core chip model: N cores with private L1/L2 hierarchies over
 * one shared, banked LLC, driven by a round-robin interleaved cycle
 * loop (DESIGN.md §15).
 *
 * Interleaving is quantum-based in the Graphite/Pac-Sim lax-
 * synchronisation style: each core advances Chip::quantum µops per
 * turn on its own private clock, and cross-core timing only meets at
 * the shared LLC, where accesses are stamped with the owning core's
 * absolute elapsed time.  Every core starts cold and every µop is
 * timed: there is no functional warm-up.  Chip models multi-core
 * chips only (construction panics below two cores): a one-core
 * processor runs on a backend's own core session
 * (control/chip_controller).
 */

#ifndef ADAPTSIM_UARCH_CHIP_HH
#define ADAPTSIM_UARCH_CHIP_HH

#include <memory>
#include <span>
#include <vector>

#include "uarch/core.hh"
#include "uarch/core_config.hh"
#include "uarch/shared_llc.hh"

namespace adaptsim::obs
{
class Counter;
} // namespace adaptsim::obs

namespace adaptsim::uarch
{

/** Result of one multi-core timing run. */
struct ChipResult
{
    /** Per-core timing and events (cycles are per-core clocks). */
    std::vector<SimResult> cores;

    /** Per-core fraction of LLC lines owned at the end of the run. */
    std::vector<double> occupancyShare;
};

/** N cores + shared LLC, round-robin interleaved. */
class Chip
{
  public:
    /** µops per core per round-robin slice of the loop. */
    static constexpr std::uint64_t quantum = 2000;

    /**
     * @param cfg chip geometry; one core config per core, at least
     *        two cores.
     * @param wrong_paths one wrong-path µop source per core (their
     *        lifetime must cover the chip's).
     */
    Chip(const ChipConfig &cfg,
         const std::vector<workload::WrongPathGenerator *>
             &wrong_paths);

    /** Timed co-run: one trace per core (empty spans are allowed
     *  and leave that core idle). */
    ChipResult
    run(const std::vector<std::span<const isa::MicroOp>> &traces);

    /**
     * Rebuild one core at a new design point, modelling the
     * reconfiguration flush (private caches and predictor restart
     * cold; the shared LLC keeps its contents).  The core's elapsed
     * clock is preserved.
     */
    void reconfigureCore(std::size_t core,
                         const space::Configuration &c);

    /** The shared LLC. */
    const SharedLlc &llc() const { return *llc_; }

    /** Core @p i's accumulated clock across run() calls. */
    Cycles elapsed(std::size_t i) const { return elapsed_[i]; }

  private:
    std::vector<workload::WrongPathGenerator *> wrongPaths_;
    std::unique_ptr<SharedLlc> llc_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Cycles> elapsed_;

    /** Per-core registry counters, resolved once at construction. */
    struct CoreCounters
    {
        obs::Counter *quanta;
        obs::Counter *committedOps;
    };
    std::vector<CoreCounters> counters_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_CHIP_HH
