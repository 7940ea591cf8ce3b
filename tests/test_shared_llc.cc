/**
 * @file
 * Tests of the banked shared LLC (tags, contention, ownership).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "uarch/shared_llc.hh"

using namespace adaptsim;
using namespace adaptsim::uarch;

namespace
{

/** Small geometry so eviction and contention are easy to force. */
ChipConfig
tinyChip(std::size_t cores)
{
    auto cfg = ChipConfig::homogeneous(space::Configuration(), cores);
    cfg.llcBytes = 64 * 1024;   // 64 sets at 16-way / 64 B lines
    cfg.llcBanks = 4;
    cfg.llcMshrsPerBank = 2;
    return cfg;
}

/** tinyChip's capacity in lines. */
constexpr double tinyLines = 64 * SharedLlc::assoc;

/** Distance between two lines of one set in tinyChip. */
constexpr Addr tinySetStride = 64 * CoreConfig::cacheLineBytes;

} // namespace

TEST(SharedLlc, GeometryMustBePowerOfTwo)
{
    ChipConfig bad = tinyChip(2);
    bad.llcBanks = 3;
    EXPECT_EXIT((SharedLlc{bad}),
                ::testing::ExitedWithCode(1), "power of two");
    bad = tinyChip(2);
    bad.llcBytes = 96 * 1024;   // 96 sets: not a power of two
    EXPECT_EXIT((SharedLlc{bad}),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(SharedLlc, MissThenHitOnTheSameLine)
{
    SharedLlc llc(tinyChip(2));
    const auto miss = llc.access(0x1000, 0, 0);
    EXPECT_FALSE(miss.hit);
    // A later access to the same line hits and is much cheaper.
    const auto hit = llc.access(0x1000, 0, 1000);
    EXPECT_TRUE(hit.hit);
    EXPECT_LT(hit.latency, miss.latency);
    // Only the miss filled a line.
    EXPECT_EQ(llc.occupancyShare(0), 1 / tinyLines);
}

TEST(SharedLlc, HitLatencyIsBusPlusHit)
{
    SharedLlc llc(tinyChip(1));
    llc.access(0x2000, 0, 0);
    // An uncontended hit pays exactly the bus + hit latency.
    const auto h = llc.access(0x2000, 0, 10000);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.latency, SharedLlc::busLatency + SharedLlc::hitLatency);
    EXPECT_EQ(h.queueCycles, 0);
}

TEST(SharedLlc, BankQueueDelaysBackToBackRequests)
{
    const ChipConfig cfg = tinyChip(2);
    SharedLlc llc(cfg);
    // Two lines mapping to the same bank (same low line-address
    // bits), filled so both later accesses are hits.
    const Addr a = 0x0;
    const Addr b =
        a + std::uint64_t(CoreConfig::cacheLineBytes) * cfg.llcBanks;
    llc.access(a, 0, 0);
    llc.access(b, 1, 0);

    // Same arrival time: the second request waits for the bank.
    const auto first = llc.access(a, 0, 5000);
    const auto second = llc.access(b, 1, 5000);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.queueCycles, 0);
    EXPECT_GT(second.queueCycles, 0);
    EXPECT_GT(second.latency, first.latency);
}

TEST(SharedLlc, MshrExhaustionStallsFurtherMisses)
{
    const ChipConfig cfg = tinyChip(1);   // 2 MSHRs per bank
    SharedLlc llc(cfg);
    const std::uint64_t stride =
        std::uint64_t(CoreConfig::cacheLineBytes) * cfg.llcBanks;

    // Fill both MSHRs of bank 0 with simultaneous misses, spaced so
    // the bank queue alone cannot explain the third one's wait.
    const auto m1 = llc.access(0 * stride, 0, 0);
    const auto m2 = llc.access(1 * stride, 0, 0);
    const auto m3 = llc.access(2 * stride, 0, 0);
    EXPECT_FALSE(m1.hit);
    EXPECT_FALSE(m2.hit);
    EXPECT_FALSE(m3.hit);
    // The third miss waits for an MSHR on top of the bank queue; the
    // earliest outstanding miss completes a full memLatency later.
    EXPECT_GT(m3.queueCycles, m2.queueCycles);
    EXPECT_GE(m3.queueCycles, SharedLlc::memLatency / 2);
}

TEST(SharedLlc, OccupancyTracksLineOwnership)
{
    SharedLlc llc(tinyChip(2));
    for (std::uint64_t i = 0; i < 32; ++i)
        llc.access(i * 64, 0, 0);
    for (std::uint64_t i = 32; i < 48; ++i)
        llc.access(i * 64, 1, 0);

    // Shares are over total capacity (64 sets x 16 ways = 1024
    // lines), so a mostly-empty cache reports small shares.
    EXPECT_NEAR(llc.occupancyShare(0), 32.0 / 1024.0, 1e-12);
    EXPECT_NEAR(llc.occupancyShare(1), 16.0 / 1024.0, 1e-12);
    EXPECT_NEAR(llc.occupancyShare(0) + llc.occupancyShare(1),
                48.0 / 1024.0, 1e-12);
}

TEST(SharedLlc, OwnershipTransfersOnRefill)
{
    SharedLlc llc(tinyChip(2));
    llc.access(0x4000, 0, 0);
    EXPECT_EQ(llc.occupancyShare(0), 1 / tinyLines);

    // Core 1 touching the same (present) line does NOT steal it —
    // ownership is fill-based, not access-based.
    EXPECT_TRUE(llc.access(0x4000, 1, 100).hit);
    EXPECT_EQ(llc.occupancyShare(0), 1 / tinyLines);
    EXPECT_EQ(llc.occupancyShare(1), 0.0);

    // Core 0 fills the rest of the set; core 1's miss in it evicts
    // the LRU line (0x4000) and owns the refill.
    for (Addr w = 1; w < 16; ++w)
        llc.access(0x4000 + w * tinySetStride, 0, 0);
    EXPECT_EQ(llc.occupancyShare(0), 16 / tinyLines);
    EXPECT_FALSE(
        llc.access(0x4000 + 16 * tinySetStride, 1, 0).hit);
    EXPECT_EQ(llc.occupancyShare(0), 15 / tinyLines);
    EXPECT_EQ(llc.occupancyShare(1), 1 / tinyLines);
    EXPECT_FALSE(llc.access(0x4000, 0, 0).hit);
}

TEST(SharedLlc, SharedMissRatioPerCore)
{
    // A core's shared-level miss ratio is over its own outcomes,
    // tallied the way CacheHierarchy counts each core's EventCounts.
    SharedLlc llc(tinyChip(2));
    llc.access(0x8000, 0, 0);
    std::uint64_t accesses[2] = {}, misses[2] = {};
    const auto access = [&](Addr addr, unsigned core, Cycles now) {
        ++accesses[core];
        misses[core] += !llc.access(addr, core, now).hit;
    };
    // Core 0: two hits.  Core 1: one miss, one hit.
    access(0x8000, 0, 0);
    access(0x8000, 0, 100);
    access(0x9000, 1, 0);
    access(0x9000, 1, 100);
    EXPECT_EQ(double(misses[0]) / double(accesses[0]), 0.0);
    EXPECT_EQ(double(misses[1]) / double(accesses[1]), 0.5);
}

TEST(SharedLlc, Deterministic)
{
    auto runOnce = [] {
        SharedLlc llc(tinyChip(2));
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < 4096; ++i) {
            const auto o =
                llc.access((i * 2654435761u) & 0x3ffffu, i & 1, i * 2);
            sum = sum * 31 + std::uint64_t(o.latency) + o.hit;
        }
        return sum;
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(SharedLlc, ConcurrentAccessIsSafe)
{
    // Thread-safety-by-construction smoke test: hammer one instance
    // from several threads.  Run under TSan in tier-1, this is the
    // test that proves the internal mutex covers both public entry
    // points.  Cross-thread timing is intentionally not
    // deterministic, but the ownership tally is: each thread walks
    // 5000 consecutive lines, enough to fill every way of all 64
    // sets, so whatever the interleaving the cores' shares must add
    // up to the whole cache.
    constexpr unsigned kThreads = 4;
    SharedLlc llc(tinyChip(kThreads));
    constexpr std::uint64_t kAccesses = 5000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&llc, t] {
            for (std::uint64_t i = 0; i < kAccesses; ++i) {
                llc.access(((t * 977 + i) * 64) & 0xfffff, t, i);
                if ((i & 63) == 0)
                    llc.occupancyShare(t);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    double total = 0.0;
    for (unsigned t = 0; t < kThreads; ++t)
        total += llc.occupancyShare(t);
    EXPECT_EQ(total, 1.0);
}
