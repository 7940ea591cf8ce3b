/**
 * @file
 * Online phase-change detection (stage 1 of Fig. 2).
 *
 * The detector consumes one BBV per executed interval and reports
 * whether the program has entered a different phase.  Recurring
 * phases are recognised through a signature table so the controller
 * re-profiles only genuinely new behaviour — the paper observes
 * reconfiguration roughly once every 10 intervals.
 */

#ifndef ADAPTSIM_PHASE_ONLINE_DETECTOR_HH
#define ADAPTSIM_PHASE_ONLINE_DETECTOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "phase/bbv.hh"

namespace adaptsim::phase
{

/** Signature-table online phase detector. */
class OnlinePhaseDetector
{
  public:
    /**
     * @param threshold Manhattan distance above which an interval is
     *        considered a different phase (BBVs are L1-normalised, so
     *        the distance lies in [0, 2]).
     * @param max_phases signature table capacity (clamped to >= 1 so
     *        a full table always has a nearest signature to fall back
     *        on).
     */
    explicit OnlinePhaseDetector(double threshold = 1.0,
                                 std::size_t max_phases = 64);

    /** Outcome of observing one interval. */
    struct Observation
    {
        bool phaseChanged;   ///< different phase than the last interval
        bool newPhase;       ///< first time this phase is seen
        std::size_t phaseId; ///< stable phase identifier
    };

    /** Feed the BBV of the interval that just finished. */
    Observation observe(const Bbv &bbv);

    /** Nearest signature to @p bbv, ignoring the threshold. */
    struct Match
    {
        std::size_t phaseId;
        double distance;
    };

    /**
     * Read-only nearest-signature query: no table mutation, no
     * observation counting, no current-phase update.  Empty when the
     * table is empty.
     */
    std::optional<Match> bestMatch(const Bbv &bbv) const;

    /** Number of distinct phases seen so far. */
    std::size_t numPhases() const { return signatures_.size(); }

    double threshold() const { return threshold_; }

    std::size_t capacity() const { return maxPhases_; }

    /** Signature of phase @p id (@p id < numPhases()). */
    const Bbv &signature(std::size_t id) const
    {
        return signatures_[id];
    }

    /**
     * Byte-exact export of the detector state (threshold, capacity,
     * and the signature table with observation counts).  The encoding
     * round-trips doubles bit-for-bit via common/serial.hh.
     */
    std::string serialize() const;

    /**
     * Rebuild a detector from serialize() output.  Empty optional on
     * malformed or truncated input.
     */
    static std::optional<OnlinePhaseDetector>
    deserialize(std::string_view bytes);

  private:
    double threshold_;
    std::size_t maxPhases_;
    std::vector<Bbv> signatures_;
    std::vector<std::uint64_t> observations_;
    std::size_t current_ = ~std::size_t(0);
};

} // namespace adaptsim::phase

#endif // ADAPTSIM_PHASE_ONLINE_DETECTOR_HH
