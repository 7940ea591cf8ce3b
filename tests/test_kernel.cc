/**
 * @file
 * Tests of the synthetic µop kernel generator.
 */

#include <gtest/gtest.h>

#include <map>

#include "workload/kernel.hh"

using namespace adaptsim;
using namespace adaptsim::workload;
using adaptsim::isa::OpClass;

namespace
{

KernelParams
testParams()
{
    KernelParams k;
    k.name = "test";
    k.fracLoad = 0.30;
    k.fracStore = 0.10;
    k.fracFpAlu = 0.10;
    k.numBlocks = 32;
    k.blockSize = 8;
    k.dataWorkingSet = 64 * 1024;
    return k;
}

} // namespace

TEST(Kernel, Deterministic)
{
    Kernel a(testParams(), 1, 42);
    Kernel b(testParams(), 1, 42);
    for (int i = 0; i < 5000; ++i) {
        const auto oa = a.next();
        const auto ob = b.next();
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.opClass, ob.opClass);
        EXPECT_EQ(oa.effAddr, ob.effAddr);
        EXPECT_EQ(oa.taken, ob.taken);
    }
}

TEST(Kernel, SkipMatchesGenerate)
{
    Kernel a(testParams(), 1, 7);
    Kernel b(testParams(), 1, 7);
    for (int i = 0; i < 1234; ++i)
        (void)a.next();
    b.skip(1234);
    for (int i = 0; i < 100; ++i) {
        const auto oa = a.next();
        const auto ob = b.next();
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.opClass, ob.opClass);
    }
}

TEST(Kernel, BranchDensityMatchesBlockSize)
{
    Kernel k(testParams(), 1, 3);
    int branches = 0;
    const int n = 8000;
    for (int i = 0; i < n; ++i)
        branches += k.next().isBranch();
    EXPECT_NEAR(double(branches) / n, 1.0 / 8.0, 0.01);
}

TEST(Kernel, MixFractionsApproximatelyRespected)
{
    Kernel k(testParams(), 1, 5);
    std::map<OpClass, int> counts;
    const int n = 20000;
    int body = 0;
    for (int i = 0; i < n; ++i) {
        const auto op = k.next();
        if (op.isBranch())
            continue;
        ++counts[op.opClass];
        ++body;
    }
    EXPECT_NEAR(double(counts[OpClass::Load]) / body, 0.30, 0.03);
    EXPECT_NEAR(double(counts[OpClass::Store]) / body, 0.10, 0.02);
    EXPECT_NEAR(double(counts[OpClass::FpAlu]) / body, 0.10, 0.02);
}

TEST(Kernel, AddressesInsideWorkingSet)
{
    auto params = testParams();
    params.randomAccessFrac = 1.0;
    Kernel k(params, 2, 5);
    Addr lo = ~Addr(0), hi = 0;
    for (int i = 0; i < 8000; ++i) {
        const auto op = k.next();
        if (!op.isMem())
            continue;
        lo = std::min(lo, op.effAddr);
        hi = std::max(hi, op.effAddr);
    }
    EXPECT_LE(hi - lo, params.dataWorkingSet);
}

TEST(Kernel, PcsStayInsideCodeFootprint)
{
    Kernel k(testParams(), 3, 5);
    const auto first = k.next().pc;
    Addr lo = first, hi = first;
    for (int i = 0; i < 8000; ++i) {
        const auto pc = k.next().pc;
        lo = std::min(lo, pc);
        hi = std::max(hi, pc);
    }
    const auto &p = testParams();
    // Static code: numBlocks blocks of blockSize 4-byte µops.
    EXPECT_LE(hi - lo, Addr(p.numBlocks) * p.blockSize * 4);
}

TEST(Kernel, BranchTargetsMatchNextPc)
{
    Kernel k(testParams(), 4, 9);
    isa::MicroOp prev = k.next();
    for (int i = 0; i < 4000; ++i) {
        const auto op = k.next();
        if (prev.isBranch()) {
            if (prev.taken) {
                EXPECT_EQ(op.pc, prev.target);
            } else if (op.pc > prev.pc) {
                // Normal fall-through; a smaller pc means the walk
                // wrapped from the last block back to block 0.
                EXPECT_EQ(op.pc, prev.pc + 4);
            }
        } else {
            EXPECT_EQ(op.pc, prev.pc + 4);
        }
        prev = op;
    }
}

TEST(Kernel, DistinctKernelIdsUseDistinctRegions)
{
    Kernel a(testParams(), 1, 42);
    Kernel b(testParams(), 2, 42);
    EXPECT_NE(a.next().pc, b.next().pc);
}

TEST(Kernel, RejectsDegenerateGeometry)
{
    auto params = testParams();
    params.numBlocks = 0;
    EXPECT_EXIT((Kernel{params, 0, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(Kernel, BbIdsEncodeKernelAndBlock)
{
    Kernel k(testParams(), 7, 1);
    for (int i = 0; i < 100; ++i) {
        const auto op = k.next();
        EXPECT_EQ(op.bbId >> 16, 7u);
        EXPECT_LT(op.bbId & 0xffff,
                  std::uint32_t(testParams().numBlocks));
    }
}
