/** Tests for the support layer: formatting, bits, stats, tables. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "support/bits.h"
#include "support/format.h"
#include "support/json.h"
#include "support/panic.h"
#include "support/stats.h"
#include "support/table.h"

namespace mxl {
namespace {

TEST(Format, Strcat)
{
    EXPECT_EQ(strcat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strcat(), "");
}

TEST(Format, Fixed)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(-0.5, 1), "-0.5");
    EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Format, Percent)
{
    EXPECT_EQ(percent(24.59, 2), "24.59%");
    EXPECT_EQ(percent(5.7), "5.7%");
}

TEST(Format, Hex32)
{
    EXPECT_EQ(hex32(0), "0x00000000");
    EXPECT_EQ(hex32(0xdeadbeef), "0xdeadbeef");
}

TEST(Format, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(Bits, BitsOf)
{
    EXPECT_EQ(bitsOf(0xabcd1234, 0, 4), 0x4u);
    EXPECT_EQ(bitsOf(0xabcd1234, 28, 4), 0xau);
    EXPECT_EQ(bitsOf(0xffffffff, 5, 3), 7u);
}

TEST(Bits, MaskBits)
{
    EXPECT_EQ(maskBits(0, 5), 0x1fu);
    EXPECT_EQ(maskBits(27, 5), 0xf8000000u);
    EXPECT_EQ(maskBits(0, 32), 0xffffffffu);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x7ffffff, 27), -1);
    EXPECT_EQ(signExtend(0x4000000, 27), -(1 << 26));
    EXPECT_EQ(signExtend(0x3ffffff, 27), (1 << 26) - 1);
    EXPECT_EQ(signExtend(0xffffffff, 32), -1);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
}

TEST(Bits, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(0, 27));
    EXPECT_TRUE(fitsSigned((1 << 26) - 1, 27));
    EXPECT_FALSE(fitsSigned(1 << 26, 27));
    EXPECT_TRUE(fitsSigned(-(1 << 26), 27));
    EXPECT_FALSE(fitsSigned(-(1 << 26) - 1, 27));
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0);
    EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4);
}

TEST(Stats, Stddev)
{
    EXPECT_DOUBLE_EQ(stddev({5}), 0);
    EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
}

TEST(Stats, MinMax)
{
    EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1);
    EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3);
    EXPECT_DOUBLE_EQ(minOf({}), 0);
}

TEST(Table, RendersAligned)
{
    TextTable t;
    t.addRow({"name", "value"});
    t.addRow({"x", "1.5%"});
    t.addRow({"longer", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("1.5%"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, NumericRightAlign)
{
    TextTable t;
    t.addRow({"h", "num"});
    t.addRow({"a", "7"});
    std::string s = t.render();
    // "num" is 3 wide; the 7 should be right-aligned under it.
    EXPECT_NE(s.find("  7"), std::string::npos);
}

TEST(Panic, PanicThrows)
{
    try {
        panic("boom ", 42);
        FAIL() << "did not throw";
    } catch (const MxlError &e) {
        EXPECT_EQ(e.kind, MxlError::Kind::Panic);
        EXPECT_NE(std::string(e.what()).find("boom 42"),
                  std::string::npos);
    }
}

TEST(Panic, FatalThrows)
{
    try {
        fatal("user error");
        FAIL() << "did not throw";
    } catch (const MxlError &e) {
        EXPECT_EQ(e.kind, MxlError::Kind::Fatal);
    }
}

TEST(Panic, AssertMacro)
{
    EXPECT_NO_THROW(MXL_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(MXL_ASSERT(1 == 2, "bad"), MxlError);
}

TEST(Json, ObjectsKeepInsertionOrderAndDumpDeterministically)
{
    Json j = Json::object();
    j.set("zeta", 1).set("alpha", "two").set("flag", true);
    j.set("inner", Json::array().push(1).push(Json()).push(-3));
    EXPECT_EQ(j.dump(),
              "{\"zeta\": 1, \"alpha\": \"two\", \"flag\": true, "
              "\"inner\": [1, null, -3]}");
    // Equal construction sequences give byte-identical text.
    Json k = Json::object();
    k.set("zeta", 1).set("alpha", "two").set("flag", true);
    k.set("inner", Json::array().push(1).push(Json()).push(-3));
    EXPECT_EQ(j.dump(), k.dump());
    EXPECT_NE(j.dump(2).find("\n"), std::string::npos);
}

TEST(Json, Uint64RoundTripsExactly)
{
    // Fault seeds are full-width splitmix64 values: they must survive
    // dump/parse without passing through double.
    const uint64_t seed = 0xDEADBEEFCAFEF00Dull;
    Json j = Json::object();
    j.set("seed", seed).set("neg", static_cast<int64_t>(-42));
    Json back;
    ASSERT_TRUE(Json::parse(j.dump(), &back));
    ASSERT_NE(back.find("seed"), nullptr);
    EXPECT_EQ(back.find("seed")->asUint(), seed);
    EXPECT_EQ(back.find("neg")->asInt(), -42);
    EXPECT_EQ(back.dump(), j.dump());
}

TEST(Json, ParseAcceptsValidRejectsMalformed)
{
    Json v;
    ASSERT_TRUE(Json::parse("  {\"a\": [1, 2.5, \"x\\n\", false]} ", &v));
    ASSERT_TRUE(v.isObject());
    const Json *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->size(), 4u);
    EXPECT_EQ(a->at(0).asUint(), 1u);
    EXPECT_EQ(a->at(1).asReal(), 2.5);
    EXPECT_EQ(a->at(2).str(), "x\n");
    EXPECT_FALSE(a->at(3).asBool(true));

    EXPECT_FALSE(Json::parse("", &v));
    EXPECT_FALSE(Json::parse("{", &v));
    EXPECT_FALSE(Json::parse("{\"a\": }", &v));
    EXPECT_FALSE(Json::parse("[1,]", &v));
    EXPECT_FALSE(Json::parse("1 2", &v)); // trailing content
    EXPECT_FALSE(Json::parse("nul", &v));
}

TEST(Json, IntegerAccessorsRejectRealsTheTypeCannotHold)
{
    // Truncating a real the integer type cannot represent is undefined
    // behaviour; the accessors hand back the caller's default instead.
    Json huge;
    ASSERT_TRUE(Json::parse("1e30", &huge));
    EXPECT_EQ(huge.asInt(7), 7);
    EXPECT_EQ(huge.asUint(7), 7u);
    Json minusOne;
    ASSERT_TRUE(Json::parse("-1.0", &minusOne));
    EXPECT_EQ(minusOne.asUint(7), 7u);
    EXPECT_EQ(minusOne.asInt(7), -1);
    EXPECT_EQ(Json(std::nan("")).asInt(7), 7);
    EXPECT_EQ(Json(HUGE_VAL).asUint(7), 7u);
    EXPECT_EQ(Json(-HUGE_VAL).asInt(7), 7);

    // Reals that fit still truncate toward zero.
    EXPECT_EQ(Json(1.5).asInt(), 1);
    EXPECT_EQ(Json(-2.5).asInt(), -2);
    EXPECT_EQ(Json(-0.5).asUint(7), 0u);
    EXPECT_EQ(Json(0x1p63).asUint(), uint64_t{1} << 63);
    EXPECT_EQ(Json(-0x1p63).asInt(), INT64_MIN);
}

TEST(Json, StringEscapesRoundTrip)
{
    Json j("quote \" backslash \\ tab \t newline \n ctrl \x01");
    Json back;
    ASSERT_TRUE(Json::parse(j.dump(), &back));
    EXPECT_EQ(back.str(), j.str());
}

} // namespace
} // namespace mxl
