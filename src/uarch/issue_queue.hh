/**
 * @file
 * Issue queue with event-driven wakeup and age-ordered select.
 *
 * Entries are named by their ROB slot.  An op enters with the ROB
 * slots of its producers that have not completed yet; each of them
 * links the op into its consumer list.  When a producer completes,
 * wakeup() walks that list once and every consumer whose last
 * producer this was joins the ready set.  Select visits only ready
 * ops, oldest first, so a waiting op costs nothing per cycle.
 *
 * Consumer lists are intrusive and preallocated (two operand links
 * per ROB slot), so nothing allocates after construction.  A list
 * is in dispatch order, youngest first.  Squash removes the youngest
 * ops first, so a squashed op's links are always at the heads of
 * their lists and unlink in O(1).  The per-op methods are defined
 * here so they inline into the pipeline loop.
 */

#ifndef ADAPTSIM_UARCH_ISSUE_QUEUE_HH
#define ADAPTSIM_UARCH_ISSUE_QUEUE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace adaptsim::uarch
{

/** Wakeup/select issue queue over ROB slot indices. */
class IssueQueue
{
  public:
    /**
     * @param capacity issue queue entries.
     * @param rob_capacity ROB slots (the index space of entries).
     */
    IssueQueue(int capacity, int rob_capacity);

    bool full() const { return count_ == capacity_; }
    bool empty() const { return count_ == 0; }
    int occupancy() const { return count_; }
    int capacity() const { return capacity_; }

    /**
     * Insert the newly dispatched (youngest) op in ROB slot
     * @p rob_idx.  @p prod0 and @p prod1 are the slots of its
     * producers that have not completed, or -1; the same producer
     * may appear twice.  An op with no such producer is ready.
     */
    void
    insert(std::int32_t rob_idx, std::int32_t prod0, std::int32_t prod1)
    {
        if (full())
            panic("IssueQueue::insert on full queue");
        ++count_;
        waiting_[rob_idx] = 0;
        if (prod0 >= 0)
            link(rob_idx, 0, prod0);
        if (prod1 >= 0)
            link(rob_idx, 1, prod1);
        if (waiting_[rob_idx] == 0)
            setReady(rob_idx);
    }

    /** The op in ROB slot @p producer completed: wake its consumers. */
    void
    wakeup(std::int32_t producer)
    {
        for (std::int32_t l = consumers_[producer]; l >= 0;) {
            const std::int32_t consumer = l / 2;
            linkedTo_[l] = -1;
            l = next_[l];
            if (--waiting_[consumer] == 0)
                setReady(consumer);
        }
        consumers_[producer] = -1;
    }

    /**
     * Remove the op in ROB slot @p rob_idx: it issued (it is
     * ready), or it is squashed (the youngest op still queued).
     */
    void
    remove(std::int32_t rob_idx)
    {
        // Unlink in reverse link order: when both operands wait on
        // one producer, operand 1's link sits in front of operand 0's.
        for (int operand = 1; operand >= 0; --operand) {
            const std::int32_t l = 2 * rob_idx + operand;
            const std::int32_t producer = linkedTo_[l];
            if (producer < 0)
                continue;
            if (consumers_[producer] != l)
                panic("IssueQueue::remove of a waiting op out of age "
                      "order");
            consumers_[producer] = next_[l];
            linkedTo_[l] = -1;
        }
        ready_[wordOf(rob_idx)] &=
            ~(std::uint64_t(1) << bitOf(rob_idx));
        --count_;
    }

    /**
     * Visit the ready ops oldest first, where ROB slot @p oldest
     * (the ROB head) is the oldest and slot indices wrap at the
     * ROB capacity.  @p visit(rob_idx) returns false to stop; it
     * may remove() the op it is given.
     */
    template <typename Fn>
    void
    forEachReady(std::int32_t oldest, Fn &&visit) const
    {
        if (scanReady(oldest, robCapacity_, visit))
            scanReady(0, oldest, visit);
    }

  private:
    static constexpr int wordBits = 64;
    static int wordOf(std::int32_t idx) { return idx >> 6; }
    static int bitOf(std::int32_t idx) { return idx & (wordBits - 1); }

    void setReady(std::int32_t idx)
    {
        ready_[wordOf(idx)] |= std::uint64_t(1) << bitOf(idx);
    }
    void
    link(std::int32_t rob_idx, int operand, std::int32_t producer)
    {
        const std::int32_t l = 2 * rob_idx + operand;
        next_[l] = consumers_[producer];
        linkedTo_[l] = producer;
        consumers_[producer] = l;
        ++waiting_[rob_idx];
    }

    /** Visit ready slots in [lo, hi); false once @p visit stops. */
    template <typename Fn>
    bool
    scanReady(std::int32_t lo, std::int32_t hi, Fn &visit) const
    {
        if (lo >= hi)
            return true;
        const int last = wordOf(hi - 1);
        for (int w = wordOf(lo); w <= last; ++w) {
            std::uint64_t bits = ready_[w];
            if (w == wordOf(lo))
                bits &= ~std::uint64_t(0) << bitOf(lo);
            if (w == last && bitOf(hi) != 0)
                bits &= (std::uint64_t(1) << bitOf(hi)) - 1;
            while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                if (!visit(static_cast<std::int32_t>(w * wordBits + b)))
                    return false;
            }
        }
        return true;
    }

    int capacity_;
    int robCapacity_;
    int count_ = 0;
    /** One bit per ROB slot: queued and every producer complete. */
    std::vector<std::uint64_t> ready_;
    /** Producers of each slot's op that have not completed. */
    std::vector<std::uint8_t> waiting_;
    /** Per ROB slot: first link of its consumer list, or -1. */
    std::vector<std::int32_t> consumers_;
    /** Per link (2 * slot + operand): next link, or -1. */
    std::vector<std::int32_t> next_;
    /** Per link: the producer slot it is linked to, or -1. */
    std::vector<std::int32_t> linkedTo_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_ISSUE_QUEUE_HH
