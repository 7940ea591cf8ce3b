/**
 * @file
 * Tests of the ASCII table renderer.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/table.hh"

using adaptsim::TextTable;

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, NumericCellsRightAligned)
{
    TextTable t;
    t.setHeader({"col"});
    t.addRow({"123"});
    t.addRow({"longtext"});
    const std::string out = t.render();
    // "123" padded to width 8 → five leading spaces.
    EXPECT_NE(out.find("     123"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.234567, 2), "1.23");
    EXPECT_EQ(TextTable::num(std::uint64_t(42)), "42");
    EXPECT_EQ(TextTable::sci(12345.0, 2), "1.23e+04");
}

TEST(TextTable, RaggedRowsHandled)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"only-one"});
    std::string s;
    EXPECT_NO_THROW(s = t.render());
    EXPECT_NE(s.find("only-one"), std::string::npos);
}
