/**
 * @file
 * The pluggable performance-model seam.
 *
 * Every layer that needs "simulate this trace on this configuration"
 * — the evaluation repository, the runtime controller, the benches —
 * goes through the abstract PerfModel interface instead of
 * constructing the cycle-level uarch::Core directly.  Backends are
 * looked up by name in a fixed table of the two built-ins; every
 * entry point takes an optional backend, and a null one means
 * "cycle" (resolvePerfModel).  Profiling runs need the per-cycle
 * observer callbacks only "cycle" drives, so they always run on
 * "cycle".  The backends simulate one core; a multi-core chip runs
 * on the cycle-level uarch::Chip (control/chip_controller).
 *
 * Two backends ship built in:
 *
 *   "cycle"     CycleLevelModel — the detailed out-of-order pipeline
 *               (uarch::Core), bit-identical to calling it directly.
 *   "interval"  IntervalModel — a Karkhanis/Eeckhout-style interval
 *               analysis that replays the trace through the *real*
 *               cache and branch-predictor models in one linear pass
 *               and prices the penalty events analytically.  No
 *               per-cycle loop, bounded IPC error.
 *
 * Results of different fidelities must never mix: each backend
 * carries a cacheTag() that the repository folds into its in-memory
 * keys and persists in every on-disk record (DESIGN.md §11).
 */

#ifndef ADAPTSIM_SIM_PERF_MODEL_HH
#define ADAPTSIM_SIM_PERF_MODEL_HH

#include <memory>
#include <span>
#include <string>

#include "uarch/core_config.hh"
#include "uarch/events.hh"
#include "uarch/pipeline.hh"
#include "uarch/warm.hh"
#include "workload/wrong_path.hh"

namespace adaptsim::sim
{

/**
 * One configured simulated core owned by a backend: caches and
 * branch predictor persist across run() calls exactly as
 * uarch::Core's do, so multi-interval executions (the controller)
 * keep state warm between intervals.  A session builds its structures
 * on its first warm() or run(), so a warmed session never fills them
 * with defaults first.
 */
class CoreSession
{
  public:
    virtual ~CoreSession() = default;

    /**
     * Functional warm-up (no timing): the caches and predictor
     * become @p memo's for config() (uarch::WarmMemo::warm).  At
     * most once, before the first run(); panics otherwise.
     */
    virtual void warm(uarch::WarmMemo &memo) = 0;

    /**
     * Timing simulation of @p trace.  @p observer is the profiling
     * counter sink; only the "cycle" backend drives it, the others
     * ignore it.
     */
    virtual uarch::SimResult
    run(std::span<const isa::MicroOp> trace,
        uarch::SimObserver *observer = nullptr) = 0;

    /** The derived configuration this session was built from. */
    virtual const uarch::CoreConfig &config() const = 0;
};

/** Abstract performance-model backend (stateless; sessions carry
 *  all mutable state, so one instance serves all threads
 *  concurrently). */
class PerfModel
{
  public:
    virtual ~PerfModel() = default;

    /** Lookup name, e.g. "cycle" or "interval". */
    virtual const char *name() const = 0;

    /**
     * Stable tag mixed into eval-cache keys and persisted in .evc
     * records so results of different fidelities never collide.
     * Tag 0 is reserved for the cycle-level reference model: stored
     * cycle records carry it, so it never changes.
     */
    virtual std::uint64_t cacheTag() const = 0;

    /** Create a fresh core session for @p cfg. */
    virtual std::unique_ptr<CoreSession>
    makeSession(const uarch::CoreConfig &cfg,
                workload::WrongPathGenerator &wrong_path) const = 0;

    /**
     * Instrumented timing run: bumps the "backend/<name>/evals"
     * counter and records the wall time into the
     * "sim/run/<name>.seconds" span histogram, then delegates to
     * @p session.  All seam call sites use this rather than calling
     * the session directly so per-backend telemetry is complete.
     */
    uarch::SimResult run(CoreSession &session,
                         std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer = nullptr) const;
};

/** Backend by name; fatal on unknown names (message lists the
 *  known ones).  Handles stay valid for the process lifetime. */
const PerfModel &perfModel(const std::string &name);

/** @p backend, or the "cycle" reference model when it is null. */
const PerfModel &resolvePerfModel(const PerfModel *backend);

} // namespace adaptsim::sim

#endif // ADAPTSIM_SIM_PERF_MODEL_HH
