/**
 * @file
 * Gshare direction predictor plus a set-associative BTB.
 *
 * The Table I space varies the gshare PHT size (1K-32K entries) and
 * the BTB size (1K-4K entries).  Speculation depth is separately
 * limited by the pipeline's in-flight-branch cap.
 */

#ifndef ADAPTSIM_UARCH_BRANCH_PREDICTOR_HH
#define ADAPTSIM_UARCH_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace adaptsim::uarch
{

/** Gshare + BTB branch predictor with speculative global history. */
class BranchPredictor
{
  public:
    /**
     * @param gshare_entries PHT entries (power of two).
     * @param btb_entries BTB entries (power of two).
     * @param btb_assoc BTB associativity.
     */
    BranchPredictor(int gshare_entries, int btb_entries, int btb_assoc);

    /**
     * The PHT and global history of @p direction with the BTB of
     * @p targets.  The two halves never read each other's state, so
     * each can be warmed alone (warmDirection, warmTarget) and the
     * results joined here.
     */
    BranchPredictor(const BranchPredictor &direction,
                    const BranchPredictor &targets);

    /** Direction prediction result with bookkeeping for recovery. */
    struct Prediction
    {
        bool taken;               ///< predicted direction
        bool btbHit;              ///< target found in the BTB
        std::uint32_t history;    ///< history *before* this branch
    };

    /**
     * Predict the branch at @p pc; speculatively updates the global
     * history with the prediction.
     */
    Prediction predict(Addr pc);

    /**
     * Commit-time update with the true outcome: trains the PHT under
     * the history the branch was fetched with (@p fetch_history) and
     * (on taken branches) allocates/updates the BTB entry.
     */
    void update(Addr pc, bool taken, std::uint32_t fetch_history);

    /**
     * Restore speculative history after squashing: @p history is the
     * pre-branch history from the mispredicted branch's Prediction,
     * @p taken its resolved direction.
     */
    void recover(std::uint32_t history, bool taken);

    /** Warm-mode combined predict+update without statistics:
     *  warmDirection then warmTarget. */
    void warm(Addr pc, bool taken);

    /** The PHT and global-history half of warm(). */
    void warmDirection(Addr pc, bool taken);

    /** The BTB half of warm(). */
    void warmTarget(Addr pc, bool taken);

    std::uint32_t history() const { return history_; }

    /** Same geometry, counters, history, BTB entries and LRU state. */
    bool operator==(const BranchPredictor &) const = default;

  private:
    std::size_t phtIndex(Addr pc, std::uint32_t history) const;

    /** Refresh @p pc's BTB entry, or allocate it over the LRU way. */
    void trainTarget(Addr pc);

    int gshareEntries_;
    int historyBits_;
    std::vector<std::uint8_t> pht_;   ///< 2-bit counters

    int btbSets_;
    int btbAssoc_;
    struct BtbEntry
    {
        Addr tag = invalidAddr;
        std::uint32_t lruStamp = 0;

        bool operator==(const BtbEntry &) const = default;
    };
    std::vector<BtbEntry> btb_;
    std::uint32_t btbClock_ = 0;

    std::uint32_t history_ = 0;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_BRANCH_PREDICTOR_HH
