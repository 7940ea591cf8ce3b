#include "sim/interval_model.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.hh"
#include "uarch/warm.hh"

namespace adaptsim::sim
{

using isa::MicroOp;
using isa::OpClass;

namespace
{

/** Per-class op counts gathered by the linear pass. */
struct PassCounts
{
    std::uint64_t intAlu = 0, intMul = 0, intDiv = 0;
    std::uint64_t fpAlu = 0, fpMul = 0, fpDiv = 0;
    std::uint64_t loads = 0, stores = 0, branches = 0, nops = 0;
    std::uint64_t rfReads = 0, rfWrites = 0, fpDests = 0;
    std::uint64_t mispredicted = 0;   ///< any-branch direction misses
};

class IntervalSession final : public CoreSession
{
  public:
    IntervalSession(const uarch::CoreConfig &cfg,
                    workload::WrongPathGenerator &)
        : cfg_(cfg)
    {
    }

    void warm(uarch::WarmMemo &memo) override
    {
        if (structures_)
            panic("a core session warms once, before its first run");
        structures_ = memo.warm(cfg_);
    }

    uarch::SimResult run(std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer) override;

    const uarch::CoreConfig &config() const override
    {
        return cfg_;
    }

  private:
    uarch::CoreConfig cfg_;
    /// caches and predictor, built by warm() or run()
    std::optional<uarch::WarmedStructures> structures_;
};

std::uint64_t
ceilDiv(std::uint64_t n, std::uint64_t d)
{
    return d == 0 ? n : (n + d - 1) / d;
}

uarch::SimResult
IntervalSession::run(std::span<const isa::MicroOp> trace,
                     uarch::SimObserver * /* unsupported */)
{
    if (!structures_) {
        structures_ = uarch::WarmedStructures{
            uarch::CacheHierarchy(cfg_),
            uarch::BranchPredictor(cfg_.gshareEntries, cfg_.btbEntries,
                                   uarch::CoreConfig::btbAssoc)};
    }
    uarch::CacheHierarchy &caches = structures_->caches;
    uarch::BranchPredictor &bpred = structures_->bpred;

    // Degenerate window: a zero-instruction trace yields the
    // well-defined all-zero result (no divisions reach a zero
    // denominator downstream; see the empty-trace regression tests).
    if (trace.empty())
        return uarch::SimResult{};

    uarch::EventCounts ev;
    PassCounts pc;
    std::uint64_t fetch_raw = 0;       ///< L1-I extra latency, raw
    std::uint64_t branch_penalty = 0;  ///< mispredicts + BTB bubbles
    std::uint64_t mem_penalty = 0;     ///< DRAM-latency load misses

    const std::uint64_t mem_lat =
        static_cast<std::uint64_t>(cfg_.memLatency);
    const std::uint64_t iso_pen =
        mem_lat * IntervalModel::kIsolatedMissPct / 100;
    const std::uint64_t serial_pen =
        mem_lat * IntervalModel::kSerialMissPct / 100;
    const std::uint64_t par_pen =
        mem_lat * IntervalModel::kParallelMissPct / 100;

    Addr last_line = invalidAddr;
    // Index of the last DRAM-latency load miss: an independent miss
    // issued within kParallelWindowOps of it proceeds in parallel
    // (MLP) and exposes almost nothing.
    std::int64_t last_dram_miss = -(1 << 20);
    // Register-taint dependence tracking: taint_[r] is the trace
    // index of the DRAM miss register r's current value (transitively)
    // depends on.  A load whose sources are tainted is a pointer
    // chase: it cannot overlap the miss it waits on.
    std::array<std::int64_t, 64> taint;
    taint.fill(-(1 << 20));
    const auto tainted = [&](std::int64_t i, int r) {
        return r >= 0 && r < 64 &&
               i - taint[static_cast<std::size_t>(r)] <=
                   static_cast<std::int64_t>(cfg_.robSize);
    };
    const auto taint_of = [&](std::int64_t i, int r) {
        return tainted(i, r) ? taint[static_cast<std::size_t>(r)]
                             : -(std::int64_t{1} << 20);
    };

    for (std::size_t si = 0; si < trace.size(); ++si) {
        const auto i = static_cast<std::int64_t>(si);
        const MicroOp &op = trace[si];

        // Frontend: one I-cache access per new line; the latency
        // beyond the hit time is accumulated raw and discounted to
        // its exposed fraction after the pass.
        const Addr line = op.pc / uarch::CoreConfig::cacheLineBytes;
        if (line != last_line) {
            const int lat = caches.fetchAccess(op.pc, ev, nullptr);
            last_line = line;
            if (lat > cfg_.icacheLatency)
                fetch_raw += static_cast<std::uint64_t>(
                    lat - cfg_.icacheLatency);
        }

        if (op.srcReg0 > 0)
            ++pc.rfReads;
        if (op.srcReg1 > 0)
            ++pc.rfReads;
        if (op.destReg != isa::noReg) {
            ++pc.rfWrites;
            if (op.writesFp())
                ++pc.fpDests;
        }

        const bool src_taint =
            tainted(i, op.srcReg0) || tainted(i, op.srcReg1);

        switch (op.opClass) {
          case OpClass::IntAlu:
            ++pc.intAlu;
            break;
          case OpClass::IntMul:
            ++pc.intMul;
            break;
          case OpClass::IntDiv:
            ++pc.intDiv;
            break;
          case OpClass::FpAlu:
            ++pc.fpAlu;
            break;
          case OpClass::FpMul:
            ++pc.fpMul;
            break;
          case OpClass::FpDiv:
            ++pc.fpDiv;
            break;
          case OpClass::Load: {
            ++pc.loads;
            const int lat =
                caches.dataAccess(op.effAddr, false, ev, nullptr);
            if (lat >= cfg_.memLatency) {
                if (src_taint)
                    mem_penalty += serial_pen;
                else if (i - last_dram_miss <=
                         IntervalModel::kParallelWindowOps)
                    mem_penalty += par_pen;
                else
                    mem_penalty += iso_pen;
                last_dram_miss = i;
                if (op.destReg >= 0 && op.destReg < 64)
                    taint[static_cast<std::size_t>(op.destReg)] = i;
            } else if (op.destReg >= 0 && op.destReg < 64) {
                // A hitting load forwards its sources' taint.
                taint[static_cast<std::size_t>(op.destReg)] =
                    std::max(taint_of(i, op.srcReg0),
                             taint_of(i, op.srcReg1));
            }
            // L2-hit latency is assumed hidden by out-of-order
            // execution inside the ROB window.
            break;
          }
          case OpClass::Store:
            ++pc.stores;
            // Committed store: latency hidden by the store buffer;
            // the access still moves the cache state and counts.
            caches.dataAccess(op.effAddr, true, ev, nullptr);
            break;
          case OpClass::Branch: {
            ++pc.branches;
            const auto pred = bpred.predict(op.pc);
            ++ev.bpredLookups;
            ++ev.btbLookups;
            if (pred.btbHit)
                ++ev.btbHits;
            const bool mispred = pred.taken != op.taken;
            if (mispred) {
                ++pc.mispredicted;
                branch_penalty += static_cast<std::uint64_t>(
                    cfg_.frontendDelay +
                    IntervalModel::kBranchResolveCycles);
                // Squash repairs the speculative global history.
                bpred.recover(pred.history, op.taken);
            } else if (pred.taken && !pred.btbHit) {
                // Taken without a BTB target: the 2-cycle decode
                // bubble of the detailed fetch stage.
                branch_penalty += 2;
            }
            // Commit order equals trace order here, so training
            // happens under the same history the branch saw.
            bpred.update(op.pc, op.taken, pred.history);
            ++ev.bpredUpdates;
            if (op.isCond) {
                ++ev.condBranches;
                if (mispred)
                    ++ev.mispredicts;
            }
            break;
          }
          case OpClass::Nop:
          default:
            ++pc.nops;
            break;
        }

        // Any non-load result forwards (or clears) its sources'
        // taint, so pointer-chase chains survive address arithmetic
        // between the loads.
        if (op.opClass != OpClass::Load && op.destReg >= 0 &&
            op.destReg < 64) {
            taint[static_cast<std::size_t>(op.destReg)] =
                src_taint ? std::max(taint_of(i, op.srcReg0),
                                     taint_of(i, op.srcReg1))
                          : -(std::int64_t{1} << 20);
        }
    }

    const std::uint64_t n = trace.size();
    const std::uint64_t mem_ops = pc.loads + pc.stores;
    const auto width = static_cast<std::uint64_t>(cfg_.width);

    // Steady-state bound: dispatch width vs structural throughput.
    // Unpipelined dividers serialise on their unit.
    std::uint64_t base = ceilDiv(n, width);
    base = std::max(base,
                    ceilDiv(mem_ops, static_cast<std::uint64_t>(
                                         cfg_.numMemPorts)));
    base = std::max(base,
                    ceilDiv(pc.intAlu, static_cast<std::uint64_t>(
                                           cfg_.numAlu)));
    base = std::max(
        base, ceilDiv(pc.fpAlu + pc.fpMul,
                      static_cast<std::uint64_t>(cfg_.numFpu)));
    base = std::max(base,
                    ceilDiv(pc.intMul, static_cast<std::uint64_t>(
                                           cfg_.numMul)));
    base = std::max(
        base,
        pc.intDiv * static_cast<std::uint64_t>(cfg_.latIntDiv) +
            pc.fpDiv * static_cast<std::uint64_t>(cfg_.latFpDiv));

    const std::uint64_t fetch_penalty =
        fetch_raw * IntervalModel::kFetchExposedPct / 100;
    const std::uint64_t fp_penalty =
        (pc.fpAlu + pc.fpMul) *
        IntervalModel::kFpStallCentiCycles / 100;
    const std::uint64_t cycles = base + fetch_penalty +
                                 branch_penalty + mem_penalty +
                                 fp_penalty;

    // Synthesised event counts: cache/branch events above are exact
    // for the correct path; the rest are deterministic estimates so
    // the power model stays meaningful (DESIGN.md §11).
    ev.cycles = cycles;
    ev.committedOps = n;
    // Wrong-path work approximated as a refill's worth of fetches
    // per direction miss (the pass itself never leaves the correct
    // path).
    ev.wrongPathOps =
        pc.mispredicted * width *
        static_cast<std::uint64_t>(
            IntervalModel::kBranchResolveCycles);
    ev.fetchedOps = n + ev.wrongPathOps;
    ev.squashedOps = ev.wrongPathOps / 2;
    ev.iqSquashed = ev.squashedOps / 2;
    ev.lsqSquashed = ev.squashedOps / 8;

    ev.robWrites = n;
    ev.robReads = n;
    const std::uint64_t dispatched = n - pc.nops;
    ev.iqWrites = dispatched;
    ev.iqIssues = dispatched;
    ev.lsqInserts = mem_ops;
    ev.lsqSearches = pc.loads;
    ev.rfReads = pc.rfReads;
    ev.rfWrites = pc.rfWrites;
    ev.aluOps = pc.intAlu;
    ev.mulOps = pc.intMul;
    ev.divOps = pc.intDiv;
    ev.fpOps = pc.fpAlu;
    ev.fpMulOps = pc.fpMul;
    ev.fpDivOps = pc.fpDiv;
    ev.memPortOps = mem_ops;

    ev.stallHeadLoad = mem_penalty;
    ev.stallHeadFp = fp_penalty;
    ev.stallHeadOther = fetch_penalty + branch_penalty;

    // Little's-law occupancy estimates: in-flight ops ~ width x
    // pipeline latency, clamped to each structure's size.
    const std::uint64_t rob_occ = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(cfg_.robSize),
        width * static_cast<std::uint64_t>(cfg_.frontendDelay + 4));
    const std::uint64_t iq_occ = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(cfg_.iqSize), rob_occ / 2);
    const std::uint64_t lsq_occ = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(cfg_.lsqSize),
        n ? rob_occ * mem_ops / n : 0);
    ev.occRobSum = cycles * rob_occ;
    ev.occIqSum = cycles * iq_occ;
    ev.occLsqSum = cycles * lsq_occ;
    ev.occIntRfSum =
        cycles * std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(cfg_.rfSize),
                     static_cast<std::uint64_t>(isa::numArchRegs) +
                         rob_occ / 2);
    ev.occFpRfSum =
        cycles * std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(cfg_.rfSize),
                     static_cast<std::uint64_t>(isa::numArchRegs) +
                         (n ? rob_occ * pc.fpDests / n : 0));

    ev.iqWakeups = dispatched * iq_occ;

    uarch::SimResult result;
    result.cycles = cycles;
    result.events = ev;
    return result;
}

} // namespace

std::unique_ptr<CoreSession>
IntervalModel::makeSession(
    const uarch::CoreConfig &cfg,
    workload::WrongPathGenerator &wrong_path) const
{
    return std::make_unique<IntervalSession>(cfg, wrong_path);
}

} // namespace adaptsim::sim
