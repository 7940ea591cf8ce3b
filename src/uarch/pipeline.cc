#include "uarch/pipeline.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::uarch
{

using isa::MicroOp;
using isa::OpClass;
using isa::noReg;

Pipeline::Pipeline(const CoreConfig &cfg, CacheHierarchy &caches,
                   BranchPredictor &bpred,
                   workload::WrongPathGenerator &wrong_path,
                   SimObserver *observer)
    : cfg_(cfg), caches_(caches), bpred_(bpred),
      wrongPathGen_(wrong_path), observer_(observer),
      rob_(cfg.robSize), iq_(cfg.iqSize, cfg.robSize),
      lsq_(cfg.lsqSize),
      rfInt_(cfg.rfSize), rfFp_(cfg.rfSize), fus_(cfg),
      wbStamp_(wbRingInitialSize, ~Cycles(0)),
      wbCount_(wbRingInitialSize, 0),
      wbPorts_(static_cast<std::uint16_t>(cfg.rfWrPorts))
{
    frontQ_.ops.resize(static_cast<std::size_t>(cfg.width) *
                       (cfg.frontendDelay + 1));
}

int
Pipeline::execLatency(RobEntry &e)
{
    switch (e.op.opClass) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
      case OpClass::Store:
        return 1;
      case OpClass::IntMul:
        return cfg_.latIntMul;
      case OpClass::IntDiv:
        return cfg_.latIntDiv;
      case OpClass::FpAlu:
        return cfg_.latFpAlu;
      case OpClass::FpMul:
        return cfg_.latFpMul;
      case OpClass::FpDiv:
        return cfg_.latFpDiv;
      case OpClass::Load:
        if (e.forwarded)
            return 1;
        return caches_.dataAccess(e.op.effAddr, false, ev_,
                                  observer_, now_);
      default:
        panic("execLatency of invalid op class");
    }
}

Cycles
Pipeline::arbitrateWriteback(Cycles earliest)
{
    for (Cycles c = earliest;; ++c) {
        if (c - now_ > wbMask_)
            growWritebackRing(c - now_);
        const std::size_t slot = c & wbMask_;
        if (wbStamp_[slot] != c) {
            wbStamp_[slot] = c;
            wbCount_[slot] = 0;
        }
        if (wbCount_[slot] < wbPorts_) {
            ++wbCount_[slot];
            return c;
        }
    }
}

void
Pipeline::growWritebackRing(Cycles ahead)
{
    // Live counts are for cycles in [now_, now_ + old size); in a
    // ring of at least ahead + 1 slots they and the new grant all
    // keep distinct slots.
    const std::size_t size =
        std::bit_ceil(static_cast<std::size_t>(ahead) + 1);
    std::vector<Cycles> stamps(size, ~Cycles(0));
    std::vector<std::uint16_t> counts(size, 0);
    for (std::size_t slot = 0; slot < wbStamp_.size(); ++slot) {
        const Cycles c = wbStamp_[slot];
        if (c != ~Cycles(0) && c >= now_) {
            stamps[c & (size - 1)] = c;
            counts[c & (size - 1)] = wbCount_[slot];
        }
    }
    wbStamp_ = std::move(stamps);
    wbCount_ = std::move(counts);
    wbMask_ = size - 1;
}

bool
Pipeline::completeStage()
{
    bool progress = false;
    while (!completions_.empty() &&
           completions_.top().cycle <= now_) {
        const Completion c = completions_.top();
        completions_.pop();
        if (!rob_.valid(c.robIdx, c.seq))
            continue;   // squashed in the meantime
        RobEntry &e = rob_.entry(c.robIdx);
        if (e.state != OpState::Issued)
            continue;
        e.state = OpState::Done;
        iq_.wakeup(c.robIdx);
        progress = true;

        // Result broadcast: wakeup CAM activity across the IQ.
        ev_.iqWakeups +=
            static_cast<std::uint64_t>(iq_.occupancy());

        if (e.op.isLoad()) {
            lsq_.removeLoad();
            e.inLsq = false;
            if (e.speculative)
                --lsqSpec_;
        }

        if (e.op.isBranch()) {
            --inFlightBranches_;
            --unresolvedRobBranches_;
            if (e.mispredicted && !e.wrongPath) {
                squashAfter(c.robIdx);
                bpred_.recover(e.histSnapshot, e.op.taken);
                wrongPathMode_ = false;
                // The redirect cancels any in-flight wrong-path
                // fetch stall (e.g. a wrong-path I-cache miss).
                fetchStallUntil_ = now_ + 1;
                lastFetchLine_ = invalidAddr;
            }
        }
    }
    return progress;
}

void
Pipeline::squashAfter(std::int32_t branch_idx)
{
    const int younger = rob_.occupancy() -
                        (rob_.distanceFromHead(branch_idx) + 1);
    int int_dests = 0;
    int fp_dests = 0;
    // Youngest first, so each restored rename mapping ends as the one
    // the oldest squashed writer of that register replaced.
    rob_.squashYoungest(younger, [&](std::int32_t idx, RobEntry &e) {
        ++ev_.squashedOps;
        if (e.inIq) {
            iq_.remove(idx);
            ++ev_.iqSquashed;
            if (e.speculative)
                --iqSpec_;
        }
        if (e.inLsq) {
            if (e.op.isStore())
                lsq_.squashStore();
            else
                lsq_.removeLoad();
            ++ev_.lsqSquashed;
            if (e.speculative)
                --lsqSpec_;
        }
        if (e.op.destReg != noReg) {
            if (e.op.writesFp()) {
                renameFp_[e.op.destReg] = e.prevProducer;
                ++fp_dests;
            } else {
                renameInt_[e.op.destReg] = e.prevProducer;
                ++int_dests;
            }
        }
        if (e.op.isBranch() && e.state != OpState::Done) {
            --inFlightBranches_;
            --unresolvedRobBranches_;
        }
    });
    rfInt_.squash(int_dests);
    rfFp_.squash(fp_dests);

    // Everything in the front-end queue is younger than the branch.
    for (std::size_t i = 0; i < frontQ_.count; ++i) {
        if (frontQ_.at(i).op.isBranch())
            --inFlightBranches_;
    }
    frontQ_.clear();
}

void
Pipeline::chargeHeadStall(OpClass cls, std::uint64_t cycles)
{
    switch (cls) {
      case OpClass::Load:
        ev_.stallHeadLoad += cycles;
        break;
      case OpClass::Store:
        ev_.stallHeadStore += cycles;
        break;
      case OpClass::FpAlu:
      case OpClass::FpMul:
        ev_.stallHeadFp += cycles;
        break;
      case OpClass::FpDiv:
      case OpClass::IntDiv:
        ev_.stallHeadDiv += cycles;
        break;
      default:
        ev_.stallHeadOther += cycles;
        break;
    }
}

bool
Pipeline::commitStage()
{
    bool progress = false;
    int committed = 0;
    while (committed < cfg_.width && !rob_.empty()) {
        const std::int32_t idx = rob_.headIndex();
        RobEntry &e = rob_.entry(idx);
        if (e.state != OpState::Done || e.doneCycle > now_) {
            if (committed == 0)
                chargeHeadStall(e.op.opClass, 1);
            break;
        }
        if (e.wrongPath)
            panic("wrong-path op reached commit");

        if (e.op.isStore()) {
            // Retire the store data into the cache hierarchy.
            caches_.dataAccess(e.op.effAddr, true, ev_, observer_,
                               now_);
            lsq_.commitStore();
            e.inLsq = false;
            if (e.speculative)
                --lsqSpec_;
        }
        if (e.op.destReg != noReg) {
            if (e.op.writesFp())
                rfFp_.release();
            else
                rfInt_.release();
        }
        if (e.op.isBranch()) {
            ++ev_.bpredUpdates;
            bpred_.update(e.op.pc, e.op.taken, e.histSnapshot);
            if (e.op.isCond) {
                ++ev_.condBranches;
                if (e.mispredicted)
                    ++ev_.mispredicts;
            }
        }
        ++ev_.committedOps;
        ++ev_.robReads;
        rob_.popHead();
        ++committed;
        progress = true;
    }
    return progress;
}

bool
Pipeline::issueStage()
{
    fus_.beginCycle(now_);
    rdPortsUsed_ = 0;
    int issued = 0;

    // Select: only ops whose producers have all completed, oldest
    // first; each still needs read ports, a free unit and, for a
    // load, a clear LSQ search.
    iq_.forEachReady(rob_.headIndex(), [&](std::int32_t idx) {
        RobEntry &e = rob_.entry(idx);
        const int srcs = (e.op.srcReg0 != noReg ? 1 : 0) +
                         (e.op.srcReg1 != noReg ? 1 : 0);
        if (rdPortsUsed_ + srcs > cfg_.rfRdPorts)
            return true;
        if (!fus_.canIssue(e.op.opClass, now_))
            return true;
        if (e.op.isLoad()) {
            const auto check = lsq_.checkLoad(
                rob_, e.op.effAddr, e.storeStamp, ev_.lsqSearches);
            if (check == LoadStoreQueue::LoadCheck::MustWait)
                return true;
            e.forwarded =
                check == LoadStoreQueue::LoadCheck::Forward;
        }

        const int lat = execLatency(e);
        fus_.issue(e.op.opClass, now_, lat);
        rdPortsUsed_ += srcs;
        ev_.rfReads += static_cast<std::uint64_t>(srcs);
        ++ev_.iqIssues;

        switch (e.op.opClass) {
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Nop:
            ++ev_.aluOps;
            break;
          case OpClass::IntMul:
            ++ev_.mulOps;
            break;
          case OpClass::IntDiv:
            ++ev_.divOps;
            break;
          case OpClass::FpAlu:
            ++ev_.fpOps;
            break;
          case OpClass::FpMul:
            ++ev_.fpMulOps;
            break;
          case OpClass::FpDiv:
            ++ev_.fpDivOps;
            break;
          case OpClass::Load:
          case OpClass::Store:
            ++ev_.memPortOps;
            break;
          default:
            break;
        }

        Cycles done = now_ + static_cast<Cycles>(lat);
        if (e.op.destReg != noReg) {
            done = arbitrateWriteback(done);
            ++ev_.rfWrites;
        }
        e.state = OpState::Issued;
        e.doneCycle = done;
        completions_.push(Completion{done, idx, e.seq});

        iq_.remove(idx);
        e.inIq = false;
        if (e.speculative)
            --iqSpec_;
        return ++issued < cfg_.width;
    });
    return issued > 0;
}

bool
Pipeline::dispatchStage()
{
    int dispatched = 0;
    while (dispatched < cfg_.width && !frontQ_.empty() &&
           frontQ_.front().dispatchReady <= now_) {
        const FetchedOp &f = frontQ_.front();
        const MicroOp &op = f.op;

        // Structural hazards stall dispatch in order.
        if (rob_.full() || iq_.full())
            break;
        if (op.isMem() && lsq_.full())
            break;
        if (op.destReg != noReg) {
            RegisterFile &rf = op.writesFp() ? rfFp_ : rfInt_;
            if (!rf.canAllocate())
                break;
        }

        const std::int32_t idx = rob_.push();
        RobEntry &e = rob_.entry(idx);
        const std::uint32_t seq = e.seq;
        e.op = op;
        e.wrongPath = f.wrongPath;
        e.mispredicted = f.mispredicted;
        e.histSnapshot = f.histSnapshot;
        e.speculative = unresolvedRobBranches_ > 0;
        ++ev_.robWrites;

        // Resolve producers through the rename tables.  Register 0 is
        // the hardwired-zero register and never has a producer.  Only
        // a producer that has not completed makes the op wait; one
        // that has committed or completed (at or before now) has its
        // value ready.
        const bool fp_srcs = op.readsFp();
        auto pending = [&](std::int16_t reg) -> std::int32_t {
            if (reg <= 0)
                return -1;
            const Producer &p = fp_srcs ? renameFp_[reg] :
                                          renameInt_[reg];
            if (p.idx < 0 || !rob_.valid(p.idx, p.seq) ||
                rob_.entry(p.idx).state == OpState::Done) {
                return -1;
            }
            return p.idx;
        };
        const std::int32_t prod0 = pending(op.srcReg0);
        const std::int32_t prod1 = pending(op.srcReg1);

        if (op.destReg != noReg) {
            RegisterFile &rf = op.writesFp() ? rfFp_ : rfInt_;
            rf.allocate();
            Producer &slot = op.writesFp() ?
                renameFp_[op.destReg] : renameInt_[op.destReg];
            e.prevProducer = slot;   // the undo log for squash
            slot = Producer{idx, seq};
        }

        if (op.opClass == OpClass::Nop) {
            e.state = OpState::Done;
            e.doneCycle = now_;
        } else {
            iq_.insert(idx, prod0, prod1);
            e.inIq = true;
            ++ev_.iqWrites;
            if (e.speculative)
                ++iqSpec_;
            if (op.isMem()) {
                if (op.isLoad())
                    e.storeStamp = lsq_.insertLoad();
                else
                    lsq_.insertStore(idx, op.effAddr);
                e.inLsq = true;
                ++ev_.lsqInserts;
                if (e.speculative)
                    ++lsqSpec_;
            }
            if (op.isBranch())
                ++unresolvedRobBranches_;
        }

        frontQ_.pop();
        ++dispatched;
    }
    return dispatched > 0;
}

bool
Pipeline::fetchStage()
{
    fetchDrewWrongPath_ = false;
    if (now_ < fetchStallUntil_)
        return false;

    int fetched = 0;
    while (fetched < cfg_.width) {
        if (frontQ_.full())
            break;
        if (!wrongPathMode_ && traceIdx_ >= trace_.size())
            break;

        // Branch cap: correct-path branches stall fetch at the limit;
        // a wrong-path branch that hits the cap is simply dropped.
        MicroOp wp_op;
        const MicroOp *op;
        if (wrongPathMode_) {
            wp_op = wrongPathGen_.next();
            fetchDrewWrongPath_ = true;
            op = &wp_op;
            if (op->isBranch() &&
                inFlightBranches_ >= cfg_.maxBranches) {
                break;
            }
        } else {
            op = &trace_[traceIdx_];
            if (op->isBranch() &&
                inFlightBranches_ >= cfg_.maxBranches) {
                break;
            }
        }

        // Instruction cache: one access per new line.
        int extra_delay = 0;
        const Addr line = op->pc / CoreConfig::cacheLineBytes;
        if (line != lastFetchLine_) {
            const int lat =
                caches_.fetchAccess(op->pc, ev_, observer_, now_);
            lastFetchLine_ = line;
            if (lat > cfg_.icacheLatency) {
                extra_delay = lat;
                fetchStallUntil_ = now_ + static_cast<Cycles>(lat);
            }
        }

        FetchedOp f;
        f.op = *op;
        f.dispatchReady = now_ + cfg_.frontendDelay +
                          static_cast<Cycles>(extra_delay);
        f.wrongPath = wrongPathMode_;
        f.mispredicted = false;
        f.histSnapshot = 0;

        bool end_group = false;
        if (op->isBranch()) {
            const auto pred = bpred_.predict(op->pc);
            ++ev_.bpredLookups;
            ++ev_.btbLookups;
            if (pred.btbHit)
                ++ev_.btbHits;
            if (observer_)
                observer_->onBranchFetch(op->pc, pred.btbHit);
            ++inFlightBranches_;
            f.histSnapshot = pred.history;

            if (!wrongPathMode_ && pred.taken != op->taken) {
                // Misprediction: everything fetched after this is
                // wrong path until the branch resolves.
                f.mispredicted = true;
                wrongPathMode_ = true;
                wrongPathGen_.startBurst(op->pc);
            }
            if (pred.taken) {
                end_group = true;   // taken break in the fetch group
                if (!pred.btbHit) {
                    // Target produced at decode: short bubble.
                    fetchStallUntil_ = std::max(fetchStallUntil_,
                                                now_ + 2);
                }
            }
        }

        frontQ_.push(f);
        ++ev_.fetchedOps;
        if (f.wrongPath)
            ++ev_.wrongPathOps;
        if (!f.wrongPath)
            ++traceIdx_;   // mispredicted branches are correct path
        ++fetched;

        if (end_group || extra_delay > 0)
            break;
    }
    return fetched > 0;
}

void
Pipeline::observeCycle(std::uint64_t repeat)
{
    const auto rob_occ =
        static_cast<std::uint64_t>(rob_.occupancy());
    const auto iq_occ = static_cast<std::uint64_t>(iq_.occupancy());
    const auto lsq_occ =
        static_cast<std::uint64_t>(lsq_.occupancy());
    ev_.occRobSum += rob_occ * repeat;
    ev_.occIqSum += iq_occ * repeat;
    ev_.occLsqSum += lsq_occ * repeat;
    ev_.occIntRfSum +=
        static_cast<std::uint64_t>(rfInt_.used()) * repeat;
    ev_.occFpRfSum +=
        static_cast<std::uint64_t>(rfFp_.used()) * repeat;

    if (!observer_)
        return;
    CycleSample s;
    s.robOcc = static_cast<std::uint32_t>(rob_occ);
    s.iqOcc = static_cast<std::uint32_t>(iq_occ);
    s.lsqOcc = static_cast<std::uint32_t>(lsq_occ);
    s.intRegsUsed = static_cast<std::uint32_t>(rfInt_.used());
    s.fpRegsUsed = static_cast<std::uint32_t>(rfFp_.used());
    s.rdPortsUsed = static_cast<std::uint32_t>(rdPortsUsed_);
    const std::size_t slot = now_ & wbMask_;
    s.wrPortsUsed = wbStamp_[slot] == now_ ? wbCount_[slot] : 0;
    s.aluUsed = static_cast<std::uint32_t>(fus_.aluUsed());
    s.memPortsUsed =
        static_cast<std::uint32_t>(fus_.memPortsUsed());
    s.fpUnitsUsed = static_cast<std::uint32_t>(fus_.fpUsed());
    s.iqSpecOps = static_cast<std::uint32_t>(iqSpec_);
    s.lsqSpecOps = static_cast<std::uint32_t>(lsqSpec_);
    observer_->onCycle(s, repeat);
}

Cycles
Pipeline::nextEventCycle() const
{
    Cycles next = ~Cycles(0);
    if (!completions_.empty())
        next = std::min(next, completions_.top().cycle);
    if (!frontQ_.empty())
        next = std::min(next, frontQ_.front().dispatchReady);
    if (fetchStallUntil_ > now_)
        next = std::min(next, fetchStallUntil_);
    if (next <= now_ || next == ~Cycles(0))
        return now_ + 1;
    return next;
}

Cycles
Pipeline::frozenHorizon() const
{
    Cycles horizon = ~Cycles(0);
    const auto later = [&](Cycles c) {
        if (c > now_)
            horizon = std::min(horizon, c);
    };
    if (!completions_.empty())
        later(completions_.top().cycle);   // stale ones count
    if (!frontQ_.empty())
        later(frontQ_.front().dispatchReady);
    later(fetchStallUntil_);
    for (const Cycles busy : fus_.divBusyUntil())
        later(busy);
    return horizon;
}

namespace
{

/** Hot-loop counters are accumulated in EventCounts per cycle and
 *  published to the registry once per run, so instrumentation adds
 *  no per-cycle work even in the enabled build. */
struct PipelineMetrics
{
    obs::Counter &cycles =
        obs::Registry::global().counter("uarch/cycles");
    obs::Counter &committedOps =
        obs::Registry::global().counter("uarch/committed_ops");
    obs::Counter &stallLoad =
        obs::Registry::global().counter("uarch/stall.load.cycles");
    obs::Counter &stallStore =
        obs::Registry::global().counter("uarch/stall.store.cycles");
    obs::Counter &stallFp =
        obs::Registry::global().counter("uarch/stall.fp.cycles");
    obs::Counter &stallDiv =
        obs::Registry::global().counter("uarch/stall.div.cycles");
    obs::Counter &stallOther =
        obs::Registry::global().counter("uarch/stall.other.cycles");
};

PipelineMetrics &
pipelineMetrics()
{
    static PipelineMetrics metrics;
    return metrics;
}

} // namespace

SimResult
Pipeline::run(std::span<const isa::MicroOp> trace)
{
    trace_ = trace;
    traceIdx_ = 0;
    now_ = 0;

    // ev_ accumulates across runs of one Pipeline; publish the
    // per-run delta to the registry below.
    const EventCounts run_start = ev_;

    const Cycles cycle_cap =
        500 * static_cast<Cycles>(trace.size()) + 100000;

    for (;;) {
        if (traceIdx_ >= trace_.size() && rob_.empty() &&
            frontQ_.empty() && !wrongPathMode_) {
            break;
        }
        const std::uint64_t searches = ev_.lsqSearches;
        const bool c1 = completeStage();
        const bool c2 = commitStage();
        const bool c3 = issueStage();
        const bool c4 = dispatchStage();
        const bool c5 = fetchStage();

        if (c1 || c2 || c3 || c4 || c5) {
            observeCycle(1);
            ++ev_.cycles;
            ++now_;
        } else if (const Cycles next = nextEventCycle();
                   next > now_ + 1) {
            const std::uint64_t span = next - now_;
            observeCycle(span);
            ev_.cycles += span;
            now_ = next;
        } else {
            // A frozen stall: the n cycles after this one and before
            // the horizon each repeat the next one, so they are
            // charged at once (DESIGN §10).  A wrong-path draw moves
            // the generator every cycle, so that step advances one.
            const Cycles horizon =
                fetchDrewWrongPath_ ? ~Cycles(0) : frozenHorizon();
            observeCycle(1);
            ++ev_.cycles;
            ++now_;
            if (horizon != ~Cycles(0) && horizon > now_) {
                const std::uint64_t n = horizon - now_;
                if (!rob_.empty()) {
                    chargeHeadStall(
                        rob_.entry(rob_.headIndex()).op.opClass, n);
                }
                ev_.lsqSearches += n * (ev_.lsqSearches - searches);
                observeCycle(n);
                ev_.cycles += n;
                now_ = horizon;
            }
        }
        if (now_ > cycle_cap)
            panic("pipeline deadlock: exceeded cycle cap at ",
                  now_, " cycles, ", traceIdx_, "/", trace.size(),
                  " ops fetched");
    }

    auto &m = pipelineMetrics();
    m.cycles.add(ev_.cycles - run_start.cycles);
    m.committedOps.add(ev_.committedOps - run_start.committedOps);
    m.stallLoad.add(ev_.stallHeadLoad - run_start.stallHeadLoad);
    m.stallStore.add(ev_.stallHeadStore - run_start.stallHeadStore);
    m.stallFp.add(ev_.stallHeadFp - run_start.stallHeadFp);
    m.stallDiv.add(ev_.stallHeadDiv - run_start.stallHeadDiv);
    m.stallOther.add(ev_.stallHeadOther - run_start.stallHeadOther);

    SimResult result;
    result.cycles = ev_.cycles;
    result.events = ev_;
    return result;
}

} // namespace adaptsim::uarch
