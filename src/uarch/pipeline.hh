/**
 * @file
 * The out-of-order superscalar pipeline timing model.
 *
 * Trace-driven: correct-path µops come from a pre-generated trace;
 * wrong-path µops are synthesised on branch mispredictions and occupy
 * resources until the branch resolves.  All fourteen Table I
 * parameters constrain the model:
 *
 *   Width        fetch/dispatch/issue/commit bandwidth + FU counts
 *   ROB/IQ/LSQ   structural occupancy limits
 *   RF + ports   rename availability, issue read ports, writeback
 *   Gshare/BTB   direction/target prediction quality
 *   Branches     in-flight speculation cap (stalls fetch at limit)
 *   I/D/L2       hit/miss latencies per access (Cacti-timed)
 *   Depth        clock frequency, front-end refill, mispredict cost
 *
 * Each cycle runs complete, commit, issue, dispatch and fetch, in
 * that order.  Issue is event-driven: processing a completion wakes
 * the producer's consumers in the IssueQueue, and select visits only
 * ops whose producers have all completed, so a waiting op costs
 * nothing per cycle.
 *
 * A step in which no stage makes progress does not walk the idle
 * cycles one by one.  If the next completion, front-end head or end
 * of a fetch stall is more than a cycle away, it jumps there.  If
 * the head is already due but dispatch is blocked by a full ROB, IQ,
 * LSQ or register file (the usual memory stall), it jumps to the
 * frozen horizon: the first cycle at which any stage can act again,
 * which also counts a divider coming free.  Every cycle in between
 * repeats the next one, so their head-of-ROB stalls, LSQ searches
 * and observer samples are charged at once with a repeat count.  A
 * step whose fetch drew a wrong-path µop moves the wrong-path
 * generator, so it advances one cycle (DESIGN §10).
 *
 * Nothing in the loop re-derives state, and only a write-back grant
 * past the end of the port ring allocates.  The front-end queue is a
 * fixed ring, the LSQ searches only a store FIFO, and mispredict
 * recovery undoes the squashed ops' rename mappings from their ROB
 * entries instead of rebuilding the tables from the ROB (DESIGN §10).
 */

#ifndef ADAPTSIM_UARCH_PIPELINE_HH
#define ADAPTSIM_UARCH_PIPELINE_HH

#include <queue>
#include <span>
#include <vector>

#include "uarch/branch_predictor.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/core_config.hh"
#include "uarch/events.hh"
#include "uarch/functional_units.hh"
#include "uarch/issue_queue.hh"
#include "uarch/load_store_queue.hh"
#include "uarch/register_file.hh"
#include "uarch/rob.hh"
#include "workload/wrong_path.hh"

namespace adaptsim::uarch
{

/** Result of one detailed interval simulation. */
struct SimResult
{
    Cycles cycles = 0;
    EventCounts events;
};

/** One-shot pipeline simulation of a µop trace. */
class Pipeline
{
  public:
    /**
     * @param cfg derived core configuration.
     * @param caches pre-warmed hierarchy (state is mutated).
     * @param bpred pre-warmed predictor (state is mutated).
     * @param wrong_path wrong-path µop source.
     * @param observer optional profiling observer (may be null).
     */
    Pipeline(const CoreConfig &cfg, CacheHierarchy &caches,
             BranchPredictor &bpred,
             workload::WrongPathGenerator &wrong_path,
             SimObserver *observer);

    /** Simulate the full trace to completion; single use. */
    SimResult run(std::span<const isa::MicroOp> trace);

  private:
    struct FetchedOp
    {
        isa::MicroOp op;
        Cycles dispatchReady;
        bool wrongPath;
        bool mispredicted;
        std::uint32_t histSnapshot;
    };

    struct Completion
    {
        Cycles cycle;
        std::int32_t robIdx;
        std::uint32_t seq;

        bool operator>(const Completion &o) const
        {
            return cycle > o.cycle;
        }
    };

    // Stage functions; each returns true when it made progress.
    bool commitStage();
    bool completeStage();
    bool issueStage();
    bool dispatchStage();
    bool fetchStage();

    void squashAfter(std::int32_t branch_idx);
    int execLatency(RobEntry &e);
    Cycles arbitrateWriteback(Cycles earliest);
    void growWritebackRing(Cycles ahead);
    void chargeHeadStall(isa::OpClass cls, std::uint64_t cycles);
    void observeCycle(std::uint64_t repeat);
    Cycles nextEventCycle() const;
    /** After a step without progress: the first cycle after now_
     *  at which a stage can act again, or ~0 if none is pending. */
    Cycles frozenHorizon() const;

    CoreConfig cfg_;
    CacheHierarchy &caches_;
    BranchPredictor &bpred_;
    workload::WrongPathGenerator &wrongPathGen_;
    SimObserver *observer_;

    Rob rob_;
    IssueQueue iq_;   ///< wakeup lists and ready set, by ROB slot
    LoadStoreQueue lsq_;
    RegisterFile rfInt_;
    RegisterFile rfFp_;
    FunctionalUnits fus_;

    Producer renameInt_[isa::numArchRegs];
    Producer renameFp_[isa::numArchRegs];

    /** Fetched ops waiting for dispatch: a FIFO ring whose capacity,
     *  width × (frontendDelay + 1), is fixed at construction. */
    struct FrontQueue
    {
        std::vector<FetchedOp> ops;
        std::size_t head = 0;
        std::size_t count = 0;

        bool empty() const { return count == 0; }
        bool full() const { return count == ops.size(); }
        /** The i-th oldest op, 0 <= i < capacity. */
        FetchedOp &
        at(std::size_t i)
        {
            const std::size_t slot = head + i;
            return ops[slot >= ops.size() ? slot - ops.size() : slot];
        }
        const FetchedOp &front() const { return ops[head]; }
        void push(const FetchedOp &f)
        {
            at(count) = f;
            ++count;
        }
        void pop()
        {
            head = head + 1 == ops.size() ? 0 : head + 1;
            --count;
        }
        void clear() { count = 0; }
    };
    FrontQueue frontQ_;

    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> completions_;

    // Write-back port arbitration ring: cycle-stamped counters for
    // the cycles [now_, now_ + size).  A grant further ahead (a
    // request queued behind a contended shared LLC) grows the ring
    // first, so no live count is ever aliased.
    static constexpr std::size_t wbRingInitialSize = 1u << 14;
    std::vector<Cycles> wbStamp_;
    std::vector<std::uint16_t> wbCount_;
    std::size_t wbMask_ = wbRingInitialSize - 1;
    std::uint16_t wbPorts_ = 0;   ///< cfg_.rfWrPorts, hoisted

    std::span<const isa::MicroOp> trace_;
    std::size_t traceIdx_ = 0;

    Cycles now_ = 0;
    Cycles fetchStallUntil_ = 0;
    bool wrongPathMode_ = false;
    bool fetchDrewWrongPath_ = false;   ///< in this cycle's fetch
    Addr lastFetchLine_ = invalidAddr;

    int inFlightBranches_ = 0;      ///< fetched, not resolved/squashed
    int unresolvedRobBranches_ = 0; ///< dispatched, not yet Done
    int iqSpec_ = 0;                ///< speculative ops in the IQ
    int lsqSpec_ = 0;               ///< speculative ops in the LSQ

    // Per-cycle port usage (reset each cycle, read by the observer).
    int rdPortsUsed_ = 0;

    EventCounts ev_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_PIPELINE_HH
