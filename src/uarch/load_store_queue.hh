/**
 * @file
 * Load/store queue: store→load forwarding and conservative
 * same-address ordering.
 *
 * Only stores are searched, so the queue keeps a count of its loads
 * and a FIFO of its stores in age order.  A store enters at dispatch
 * and leaves at commit (it is then the oldest) or at squash (it is
 * then the youngest).  A load records the store tail at dispatch
 * (its stamp): the stores older than it are exactly the FIFO entries
 * before that stamp, because a store older than a live load can
 * leave only by committing, and a store younger than it enters at or
 * after the stamp.
 */

#ifndef ADAPTSIM_UARCH_LOAD_STORE_QUEUE_HH
#define ADAPTSIM_UARCH_LOAD_STORE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "uarch/rob.hh"

namespace adaptsim::uarch
{

/** LSQ of a load count plus an age-ordered store FIFO. */
class LoadStoreQueue
{
  public:
    explicit LoadStoreQueue(int capacity);

    bool full() const { return occupancy() == capacity_; }
    int occupancy() const { return loads_ + stores(); }
    int capacity() const { return capacity_; }
    int loads() const { return loads_; }
    int stores() const
    {
        return static_cast<int>(storeTail_ - storeHead_);
    }

    /** Insert a newly dispatched load; returns its stamp. */
    std::uint64_t
    insertLoad()
    {
        if (full())
            panic("LoadStoreQueue::insertLoad on full queue");
        ++loads_;
        return storeTail_;
    }

    /** Insert a newly dispatched (youngest) store from ROB slot
     *  @p rob_idx to @p addr. */
    void
    insertStore(std::int32_t rob_idx, Addr addr)
    {
        if (full())
            panic("LoadStoreQueue::insertStore on full queue");
        stores_[storeTail_ & mask_] = Store{addr >> 3, rob_idx};
        ++storeTail_;
    }

    /** A load leaves: it completed or it was squashed. */
    void
    removeLoad()
    {
        if (loads_ == 0)
            panic("LoadStoreQueue::removeLoad with no load queued");
        --loads_;
    }

    /** The oldest store leaves at commit. */
    void
    commitStore()
    {
        if (stores() == 0)
            panic("LoadStoreQueue::commitStore with no store queued");
        ++storeHead_;
    }

    /** The youngest store leaves at squash. */
    void
    squashStore()
    {
        if (stores() == 0)
            panic("LoadStoreQueue::squashStore with no store queued");
        --storeTail_;
    }

    /** Outcome of checking a load against older stores. */
    enum class LoadCheck
    {
        NoConflict,   ///< no older store to the same line word
        Forward,      ///< older store has executed: forward its data
        MustWait      ///< older same-address store not yet executed
    };

    /**
     * Search the stores older than a load with stamp @p stamp for
     * its word address @p addr; the youngest match decides.
     * @p searched counts every older store (the CAM compares them
     * all) for the power model, even when the scan stops early.
     */
    LoadCheck
    checkLoad(const Rob &rob, Addr addr, std::uint64_t stamp,
              std::uint64_t &searched) const
    {
        const Addr word = addr >> 3;
        searched += stamp - storeHead_;
        for (std::uint64_t s = stamp; s != storeHead_;) {
            const Store &st = stores_[--s & mask_];
            if (st.word == word) {
                return rob.entry(st.robIdx).state ==
                               OpState::Dispatched ?
                    LoadCheck::MustWait : LoadCheck::Forward;
            }
        }
        return LoadCheck::NoConflict;
    }

  private:
    struct Store
    {
        Addr word;             ///< effective address >> 3
        std::int32_t robIdx;
    };

    int capacity_;
    int loads_ = 0;
    /** Store stamps: the FIFO holds [storeHead_, storeTail_). */
    std::uint64_t storeHead_ = 0;
    std::uint64_t storeTail_ = 0;
    std::uint64_t mask_;       ///< ring size - 1 (a power of two)
    std::vector<Store> stores_;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_LOAD_STORE_QUEUE_HH
