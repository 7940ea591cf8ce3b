#include "uarch/branch_predictor.hh"
#include <algorithm>

#include <bit>

#include "common/logging.hh"

namespace adaptsim::uarch
{

BranchPredictor::BranchPredictor(int gshare_entries, int btb_entries,
                                 int btb_assoc)
    : gshareEntries_(gshare_entries),
      // History is capped below the full index width: with short
      // simulated intervals, very long histories fragment the PHT
      // into more contexts than can be trained (the PC bits then
      // carry the per-branch bias).
      historyBits_(std::min(10, static_cast<int>(std::bit_width(
          static_cast<unsigned>(gshare_entries))) - 1)),
      pht_(gshare_entries, 1),  // weakly not-taken
      btbSets_(btb_entries / btb_assoc),
      btbAssoc_(btb_assoc),
      btb_(btb_entries)
{
    if (std::popcount(static_cast<unsigned>(gshare_entries)) != 1)
        fatal("gshare entries must be a power of two");
    if (btbSets_ <= 0 ||
        std::popcount(static_cast<unsigned>(btbSets_)) != 1) {
        fatal("BTB sets must be a positive power of two");
    }
}

BranchPredictor::BranchPredictor(const BranchPredictor &direction,
                                 const BranchPredictor &targets)
    : gshareEntries_(direction.gshareEntries_),
      historyBits_(direction.historyBits_),
      pht_(direction.pht_),
      btbSets_(targets.btbSets_),
      btbAssoc_(targets.btbAssoc_),
      btb_(targets.btb_),
      btbClock_(targets.btbClock_),
      history_(direction.history_)
{
}

std::size_t
BranchPredictor::phtIndex(Addr pc, std::uint32_t history) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(gshareEntries_ - 1);
    return ((pc >> 2) ^ history) & mask;
}

BranchPredictor::Prediction
BranchPredictor::predict(Addr pc)
{
    Prediction pred;
    pred.history = history_;
    pred.taken = pht_[phtIndex(pc, history_)] >= 2;

    // BTB lookup.
    const std::size_t set = (pc >> 2) & (btbSets_ - 1);
    pred.btbHit = false;
    for (int w = 0; w < btbAssoc_; ++w) {
        if (btb_[set * btbAssoc_ + w].tag == pc) {
            pred.btbHit = true;
            btb_[set * btbAssoc_ + w].lruStamp = ++btbClock_;
            break;
        }
    }

    // Speculative history update with the predicted direction.
    history_ = ((history_ << 1) | (pred.taken ? 1u : 0u)) &
               ((1u << historyBits_) - 1u);
    return pred;
}

void
BranchPredictor::update(Addr pc, bool taken,
                        std::uint32_t fetch_history)
{
    // Train under the same history the prediction was made with.
    std::uint8_t &ctr = pht_[phtIndex(pc, fetch_history)];
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;

    if (taken)
        trainTarget(pc);
}

void
BranchPredictor::trainTarget(Addr pc)
{
    const std::size_t set = (pc >> 2) & (btbSets_ - 1);
    // Hit? refresh; miss? replace LRU way.
    int victim = 0;
    std::uint32_t oldest = ~0u;
    for (int w = 0; w < btbAssoc_; ++w) {
        BtbEntry &e = btb_[set * btbAssoc_ + w];
        if (e.tag == pc) {
            e.lruStamp = ++btbClock_;
            return;
        }
        if (e.lruStamp < oldest) {
            oldest = e.lruStamp;
            victim = w;
        }
    }
    btb_[set * btbAssoc_ + victim] = {pc, ++btbClock_};
}

void
BranchPredictor::recover(std::uint32_t history, bool taken)
{
    history_ = ((history << 1) | (taken ? 1u : 0u)) &
               ((1u << historyBits_) - 1u);
}

void
BranchPredictor::warm(Addr pc, bool taken)
{
    warmDirection(pc, taken);
    warmTarget(pc, taken);
}

void
BranchPredictor::warmDirection(Addr pc, bool taken)
{
    std::uint8_t &ctr = pht_[phtIndex(pc, history_)];
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) &
               ((1u << historyBits_) - 1u);
}

void
BranchPredictor::warmTarget(Addr pc, bool taken)
{
    if (taken)
        trainTarget(pc);
}

} // namespace adaptsim::uarch
