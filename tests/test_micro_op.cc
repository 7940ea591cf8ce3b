/**
 * @file
 * Tests of the µop record and op-class helpers.
 */

#include <gtest/gtest.h>

#include "isa/micro_op.hh"

using namespace adaptsim::isa;

TEST(OpClass, MemPredicate)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_FALSE(isMemOp(OpClass::Branch));
}

TEST(OpClass, FpPredicate)
{
    EXPECT_TRUE(isFpOp(OpClass::FpAlu));
    EXPECT_TRUE(isFpOp(OpClass::FpMul));
    EXPECT_TRUE(isFpOp(OpClass::FpDiv));
    EXPECT_FALSE(isFpOp(OpClass::Load));
    EXPECT_FALSE(isFpOp(OpClass::IntMul));
}

TEST(MicroOp, FlagHelpers)
{
    MicroOp op;
    op.opClass = OpClass::Load;
    EXPECT_TRUE(op.isMem());
    EXPECT_TRUE(op.isLoad());
    EXPECT_FALSE(op.isStore());
    EXPECT_FALSE(op.isBranch());

    op.opClass = OpClass::Branch;
    EXPECT_TRUE(op.isBranch());
    EXPECT_FALSE(op.isMem());
}

TEST(MicroOp, FpDestination)
{
    MicroOp op;
    op.opClass = OpClass::FpMul;
    op.destReg = 3;
    EXPECT_TRUE(op.writesFp());
    EXPECT_TRUE(op.readsFp());

    op.opClass = OpClass::Load;
    op.fpData = true;
    EXPECT_TRUE(op.writesFp());   // FP load
    EXPECT_FALSE(op.readsFp());   // address is integer

    op.fpData = false;
    EXPECT_FALSE(op.writesFp());

    op.destReg = noReg;
    op.opClass = OpClass::FpAlu;
    EXPECT_FALSE(op.writesFp());  // no destination at all
}
