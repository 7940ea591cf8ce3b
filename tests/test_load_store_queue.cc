/**
 * @file
 * Tests of the LSQ, including store→load forwarding decisions.
 */

#include <gtest/gtest.h>

#include "uarch/load_store_queue.hh"

using namespace adaptsim;
using namespace adaptsim::uarch;
using isa::OpClass;

namespace
{

using LoadCheck = LoadStoreQueue::LoadCheck;

/** Dispatch memory ops into a ROB and the LSQ, in age order. */
struct LsqFixture
{
    Rob rob{16};
    LoadStoreQueue lsq{8};

    std::int32_t
    push(OpClass cls, Addr addr)
    {
        const auto idx = rob.push();
        auto &e = rob.entry(idx);
        e.op.opClass = cls;
        e.op.effAddr = addr;
        return idx;
    }

    std::int32_t
    addStore(Addr addr, OpState state)
    {
        const auto idx = push(OpClass::Store, addr);
        rob.entry(idx).state = state;
        lsq.insertStore(idx, addr);
        return idx;
    }

    std::int32_t
    addLoad(Addr addr)
    {
        const auto idx = push(OpClass::Load, addr);
        rob.entry(idx).storeStamp = lsq.insertLoad();
        return idx;
    }

    LoadCheck
    check(std::int32_t load, std::uint64_t &searched) const
    {
        const auto &e = rob.entry(load);
        return lsq.checkLoad(rob, e.op.effAddr, e.storeStamp,
                             searched);
    }
};

} // namespace

TEST(LoadStoreQueue, NoConflictWithoutMatchingStore)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Done);
    const auto load = f.addLoad(0x2000);
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(load, searched), LoadCheck::NoConflict);
    EXPECT_EQ(searched, 1u);
}

TEST(LoadStoreQueue, ForwardFromExecutedStore)
{
    for (const auto state : {OpState::Issued, OpState::Done}) {
        LsqFixture f;
        f.addStore(0x1000, state);
        const auto load = f.addLoad(0x1000);
        std::uint64_t searched = 0;
        EXPECT_EQ(f.check(load, searched), LoadCheck::Forward);
    }
}

TEST(LoadStoreQueue, WaitForPendingStore)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Dispatched);
    const auto load = f.addLoad(0x1000);
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(load, searched), LoadCheck::MustWait);
}

TEST(LoadStoreQueue, YoungestOlderMatchWins)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Done);
    f.addStore(0x1000, OpState::Dispatched);
    const auto load = f.addLoad(0x1000);
    std::uint64_t searched = 0;
    // The younger (pending) store is the forwarding source → wait.
    EXPECT_EQ(f.check(load, searched), LoadCheck::MustWait);
}

TEST(LoadStoreQueue, EarlyExitStillCountsEveryOlderStore)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Dispatched);
    f.addStore(0x3000, OpState::Done);
    f.addLoad(0x5000);   // loads are never searched
    f.addStore(0x2000, OpState::Done);
    const auto load = f.addLoad(0x2000);
    std::uint64_t searched = 0;
    // The youngest store matches and ends the scan, but the CAM
    // compared all three older stores.
    EXPECT_EQ(f.check(load, searched), LoadCheck::Forward);
    EXPECT_EQ(searched, 3u);
}

TEST(LoadStoreQueue, StoreDispatchedAfterLoadIsIgnored)
{
    LsqFixture f;
    const auto load = f.addLoad(0x1000);
    f.addStore(0x1000, OpState::Dispatched);
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(load, searched), LoadCheck::NoConflict);
    EXPECT_EQ(searched, 0u);
}

TEST(LoadStoreQueue, WordGranularityMatching)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Done);
    // Same 8-byte word.
    const auto l1 = f.addLoad(0x1004);
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(l1, searched), LoadCheck::Forward);
    // Different word.
    const auto l2 = f.addLoad(0x1008);
    EXPECT_EQ(f.check(l2, searched), LoadCheck::NoConflict);
}

TEST(LoadStoreQueue, CommitPopsOldestStore)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Dispatched);
    f.addStore(0x2000, OpState::Done);
    const auto load = f.addLoad(0x1000);
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(load, searched), LoadCheck::MustWait);
    EXPECT_EQ(searched, 2u);

    f.lsq.commitStore();   // the pending 0x1000 store retires
    EXPECT_EQ(f.lsq.stores(), 1);
    EXPECT_EQ(f.lsq.occupancy(), 2);
    searched = 0;
    EXPECT_EQ(f.check(load, searched), LoadCheck::NoConflict);
    EXPECT_EQ(searched, 1u);
}

TEST(LoadStoreQueue, SquashPopsYoungestStoresAndLoads)
{
    LsqFixture f;
    f.addStore(0x1000, OpState::Done);
    const auto older_load = f.addLoad(0x1000);
    f.addStore(0x1000, OpState::Dispatched);
    f.addLoad(0x1000);
    ASSERT_EQ(f.lsq.occupancy(), 4);

    // Squash the youngest two, youngest first.
    f.lsq.removeLoad();
    f.lsq.squashStore();
    EXPECT_EQ(f.lsq.loads(), 1);
    EXPECT_EQ(f.lsq.stores(), 1);

    // The surviving load sees only its own older store ...
    std::uint64_t searched = 0;
    EXPECT_EQ(f.check(older_load, searched), LoadCheck::Forward);
    EXPECT_EQ(searched, 1u);

    // ... and a store dispatched after the squash reuses the freed
    // position: younger than that load, older than a new one.
    f.addStore(0x1000, OpState::Dispatched);
    const auto new_load = f.addLoad(0x1000);
    searched = 0;
    EXPECT_EQ(f.check(older_load, searched), LoadCheck::Forward);
    EXPECT_EQ(searched, 1u);
    searched = 0;
    EXPECT_EQ(f.check(new_load, searched), LoadCheck::MustWait);
    EXPECT_EQ(searched, 2u);
}

TEST(LoadStoreQueue, FullCountsLoadsAndStores)
{
    LsqFixture f;
    for (int i = 0; i < 4; ++i) {
        f.addLoad(0x100 + 8 * i);
        EXPECT_FALSE(f.lsq.full());
        f.addStore(0x200 + 8 * i, OpState::Dispatched);
    }
    EXPECT_TRUE(f.lsq.full());
    EXPECT_EQ(f.lsq.occupancy(), 8);
    f.lsq.removeLoad();
    EXPECT_FALSE(f.lsq.full());
}

TEST(LoadStoreQueue, StoreRingWrapsAcrossManyCommits)
{
    // Capacity 6 rounds the store ring up to 8 slots; stamps keep
    // counting across wraps.
    Rob rob{16};
    LoadStoreQueue lsq{6};
    std::uint64_t searched = 0;
    for (int i = 0; i < 50; ++i) {
        const auto s = rob.push();
        rob.entry(s).op.opClass = OpClass::Store;
        rob.entry(s).state = OpState::Done;
        lsq.insertStore(s, 0x1000 + 8 * (i % 3));
        const auto stamp = lsq.insertLoad();
        searched = 0;
        EXPECT_EQ(lsq.checkLoad(rob, 0x1000 + 8 * (i % 3), stamp,
                                searched),
                  LoadCheck::Forward);
        EXPECT_EQ(searched, 1u);
        lsq.removeLoad();
        lsq.commitStore();
        rob.popHead();
    }
    EXPECT_EQ(lsq.occupancy(), 0);
}
