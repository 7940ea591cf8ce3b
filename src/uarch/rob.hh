/**
 * @file
 * Reorder buffer: a ring of in-flight µop state.
 *
 * Entries are addressed by slot index; a per-entry sequence number
 * guards against stale references after squash/recycle (pending
 * completions, rename-table entries).  Producer/consumer links live
 * in the IssueQueue, keyed by the same slot indices.
 *
 * Each entry also carries the rename mapping its destination
 * replaced (an undo log): squash walks the squashed entries
 * youngest first and restores those mappings, so recovery never
 * re-walks the surviving entries.  The per-op methods are defined
 * here so they inline into the pipeline loop.
 */

#ifndef ADAPTSIM_UARCH_ROB_HH
#define ADAPTSIM_UARCH_ROB_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/micro_op.hh"

namespace adaptsim::uarch
{

/** Lifecycle of a ROB entry. */
enum class OpState : std::uint8_t
{
    Empty,
    Dispatched,   ///< waiting in IQ (and LSQ if memory)
    Issued,       ///< executing
    Done          ///< result available
};

/** A rename-table mapping: the ROB slot and seq of a register's
 *  latest producer, or slot -1 for none.  A mapping whose (slot,
 *  seq) is no longer valid() names a committed or recycled producer,
 *  whose value is ready. */
struct Producer
{
    std::int32_t idx = -1;
    std::uint32_t seq = 0;
};

/** All pipeline-tracked state of one in-flight µop. */
struct RobEntry
{
    isa::MicroOp op;
    std::uint32_t seq = 0;        ///< recycle guard
    OpState state = OpState::Empty;
    bool wrongPath = false;       ///< fetched past a mispredict
    bool speculative = false;     ///< younger than unresolved branch
    bool mispredicted = false;    ///< branch predicted wrongly
    bool inIq = false;
    bool inLsq = false;
    bool forwarded = false;       ///< load satisfied by a store
    std::uint32_t histSnapshot = 0; ///< bpred history before branch
    Cycles doneCycle = 0;
    Producer prevProducer;        ///< mapping the destination replaced
    std::uint64_t storeStamp = 0; ///< load: LSQ store tail at dispatch
};

/** The reorder buffer ring. */
class Rob
{
  public:
    explicit Rob(int capacity);

    bool full() const { return count_ == capacity_; }
    bool empty() const { return count_ == 0; }
    int occupancy() const { return count_; }
    int capacity() const { return capacity_; }

    /** Slot index of the oldest entry (empty() must be false). */
    std::int32_t headIndex() const { return head_; }

    /** Entry access by slot index. */
    RobEntry &entry(std::int32_t idx) { return entries_[idx]; }
    const RobEntry &entry(std::int32_t idx) const
    {
        return entries_[idx];
    }

    /** Append a new entry at the tail; returns its slot index. */
    std::int32_t
    push()
    {
        if (full())
            panic("Rob::push on full ROB");
        ++count_;
        const std::int32_t idx = tailIndex();
        RobEntry &e = entries_[idx];
        // Preserve seq (incremented on recycle), reset the rest.
        const std::uint32_t seq = e.seq + 1;
        e = RobEntry{};
        e.seq = seq;
        e.state = OpState::Dispatched;
        return idx;
    }

    /** Retire the head entry. */
    void
    popHead()
    {
        if (empty())
            panic("Rob::popHead on empty ROB");
        RobEntry &e = entries_[head_];
        e.state = OpState::Empty;
        ++e.seq;
        head_ = indexFromHead(1);
        --count_;
    }

    /**
     * Squash the @p count youngest entries (from the tail), youngest
     * first, invoking @p on_squash(slot, entry) for each before the
     * slot is recycled.
     */
    template <typename Fn>
    void
    squashYoungest(int count, Fn &&on_squash)
    {
        for (int i = 0; i < count; ++i) {
            const std::int32_t idx = tailIndex();
            on_squash(idx, entries_[idx]);
            entries_[idx].state = OpState::Empty;
            ++entries_[idx].seq;
            --count_;
        }
    }

    /** Slot of the youngest entry (empty() must be false). */
    std::int32_t tailIndex() const { return indexFromHead(count_ - 1); }

    /** Slot of the i-th oldest entry, 0-based (0 <= i < capacity).
     *  Ring positions wrap with a compare, never a divide: most
     *  Table I ROB sizes are not powers of two. */
    std::int32_t indexFromHead(int i) const
    {
        const std::int32_t idx = head_ + i;
        return idx >= capacity_ ? idx - capacity_ : idx;
    }

    /** Age position (0 = oldest) of the entry in slot @p idx. */
    int distanceFromHead(std::int32_t idx) const
    {
        const int d = idx - head_;
        return d < 0 ? d + capacity_ : d;
    }

    /** True when a (slot, seq) reference is still the same entry. */
    bool valid(std::int32_t idx, std::uint32_t seq) const
    {
        return idx >= 0 && entries_[idx].seq == seq &&
               entries_[idx].state != OpState::Empty;
    }

  private:
    int capacity_;
    std::int32_t head_ = 0;
    int count_ = 0;
    std::vector<RobEntry> entries_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_ROB_HH
