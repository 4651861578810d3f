/**
 * @file
 * Unit tests for the JSON value type, parser and writer.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "util/error.h"
#include "util/json.h"

namespace optimus {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue j = JsonValue::parse(
        R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
    ASSERT_TRUE(j.isObject());
    EXPECT_EQ(j.size(), 3u);
    const auto &arr = j.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[1].asNumber(), 2.0);
    EXPECT_TRUE(arr[2].at("b").asBool());
    EXPECT_TRUE(j.at("c").at("d").isNull());
}

TEST(Json, StringEscapes)
{
    JsonValue j = JsonValue::parse(R"("line\nquote\"tab\tA")");
    EXPECT_EQ(j.asString(), "line\nquote\"tab\tA");
    // Unicode beyond ASCII encodes as UTF-8.
    EXPECT_EQ(JsonValue::parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string text =
        R"({"name":"A100","bw":1.9e+12,"levels":[1,2,3],)"
        R"("ok":true,"none":null})";
    JsonValue j = JsonValue::parse(text);
    JsonValue again = JsonValue::parse(j.dump());
    EXPECT_EQ(again.at("name").asString(), "A100");
    EXPECT_DOUBLE_EQ(again.at("bw").asNumber(), 1.9e12);
    EXPECT_EQ(again.at("levels").size(), 3u);
    EXPECT_TRUE(again.at("ok").asBool());
    EXPECT_TRUE(again.at("none").isNull());
}

TEST(Json, PreservesMemberOrder)
{
    JsonValue j = JsonValue::object();
    j.set("z", JsonValue::number(1));
    j.set("a", JsonValue::number(2));
    j.set("m", JsonValue::number(3));
    EXPECT_EQ(j.dump(), R"({"z":1,"a":2,"m":3})");
    // set() on an existing key replaces in place.
    j.set("a", JsonValue::number(9));
    EXPECT_EQ(j.dump(), R"({"z":1,"a":9,"m":3})");
}

TEST(Json, PrettyPrintIndents)
{
    JsonValue j = JsonValue::object();
    j.set("k", JsonValue::array().push(JsonValue::number(1)));
    EXPECT_EQ(j.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, IntegerAccessors)
{
    EXPECT_EQ(JsonValue::parse("7").asInt(), 7);
    EXPECT_THROW(JsonValue::parse("7.5").asInt(), ConfigError);
    JsonValue j = JsonValue::parse(R"({"n": 3})");
    EXPECT_EQ(j.getInt("n", 0), 3);
    EXPECT_EQ(j.getInt("missing", 11), 11);
    EXPECT_EQ(j.getString("missing", "dflt"), "dflt");
    EXPECT_TRUE(j.getBool("missing", true));
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), ConfigError);
    EXPECT_THROW(JsonValue::parse("{"), ConfigError);
    EXPECT_THROW(JsonValue::parse("[1,]"), ConfigError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(JsonValue::parse("tru"), ConfigError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), ConfigError);
    EXPECT_THROW(JsonValue::parse("1 2"), ConfigError);
    EXPECT_THROW(JsonValue::parse("na"), ConfigError);
    EXPECT_THROW(JsonValue::parse("-infinity"), ConfigError);
    EXPECT_THROW(JsonValue::parse("[nan1]"), ConfigError);
}

TEST(Json, NonFiniteNumbersRoundTrip)
{
    // dump() writes inf, -inf and nan bare; parse() reads them back,
    // so every document the writer produces can be read again.
    const double inf = std::numeric_limits<double>::infinity();
    for (double v : {inf, -inf}) {
        const std::string text = JsonValue::object()
                                     .set("m", JsonValue::number(v))
                                     .dump();
        JsonValue back = JsonValue::parse(text);
        EXPECT_EQ(back.at("m").asNumber(), v) << text;
        EXPECT_EQ(back.dump(), text);
    }
    EXPECT_EQ(JsonValue::parse("{\"m\":inf}").at("m").asNumber(), inf);
    EXPECT_EQ(JsonValue::parse("[-inf]").asArray()[0].asNumber(), -inf);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::string nan_text =
        JsonValue::array().push(JsonValue::number(nan)).dump();
    EXPECT_EQ(nan_text, "[nan]");
    JsonValue nan_back = JsonValue::parse(nan_text);
    EXPECT_TRUE(std::isnan(nan_back.asArray()[0].asNumber()));
    EXPECT_EQ(nan_back.dump(), nan_text);
    EXPECT_TRUE(std::isnan(JsonValue::parse("-nan").asNumber()));
}

TEST(Json, TypeMismatchThrows)
{
    JsonValue j = JsonValue::parse("[1]");
    EXPECT_THROW(j.asObject(), ConfigError);
    EXPECT_THROW(j.at("x"), ConfigError);
    EXPECT_THROW(j.set("x", JsonValue()), ConfigError);
    JsonValue num = JsonValue::number(1);
    EXPECT_THROW(num.asString(), ConfigError);
    EXPECT_THROW(num.push(JsonValue()), ConfigError);
    EXPECT_THROW(num.size(), ConfigError);
}

TEST(Json, EscapesOnOutput)
{
    JsonValue j = JsonValue::string("a\"b\\c\nd");
    EXPECT_EQ(j.dump(), R"("a\"b\\c\nd")");
}

/** Exact dump() text of a single number. */
std::string
dumped(double v)
{
    return JsonValue::number(v).dump();
}

TEST(Json, NumberTextIsPinned)
{
    // Shortest of %.12g/15/16/17 that parses back to the same double.
    EXPECT_EQ(dumped(0.1), "0.1");
    EXPECT_EQ(dumped(1.0 / 3), "0.3333333333333333");
    EXPECT_EQ(dumped(1e-05), "1e-05");
    EXPECT_EQ(dumped(-2.5e-7), "-2.5e-07");
    EXPECT_EQ(dumped(123456.5), "123456.5");
    EXPECT_EQ(dumped(1234.5678), "1234.5678");
    EXPECT_EQ(dumped(3e100), "3e+100");
    EXPECT_EQ(dumped(5e-324), "4.94065645841e-324");
    EXPECT_EQ(dumped(DBL_MAX), "1.7976931348623157e+308");
    EXPECT_EQ(dumped(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(dumped(-std::numeric_limits<double>::infinity()), "-inf");
    // 15, 16 and 17 significant digits.
    EXPECT_EQ(dumped(0.123456789012345), "0.123456789012345");
    EXPECT_EQ(dumped(100.0 / 7), "14.285714285714286");
    EXPECT_EQ(dumped(0.1 + 0.2), "0.30000000000000004");
}

/** Reference: the printf/strtod rule the number writer must match. */
std::string
printfReference(double v)
{
    if (std::fabs(v) < 1e15 && v == static_cast<long long>(v))
        return std::to_string(static_cast<long long>(v));
    char buf[40];
    for (int prec : {12, 15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

TEST(Json, NumberTextMatchesPrintfReference)
{
    // Random bit patterns (nan, inf, subnormals included), powers of
    // two, neighbours of powers of ten, short decimals and values that
    // need 15-17 digits.
    std::mt19937_64 rng(20240611);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    int mismatches = 0;
    for (int i = 0; i < 60000; ++i) {
        double v = 0.0;
        switch (i % 6) {
          case 0: {
            const std::uint64_t bits = rng();
            std::memcpy(&v, &bits, sizeof(v));
            break;
          }
          case 1: v = std::ldexp(1.0, int(rng() % 2100) - 1075); break;
          case 2:
            v = std::nextafter(std::pow(10.0, int(rng() % 640) - 320),
                               rng() % 2 ? 0.0 : DBL_MAX);
            break;
          case 3: v = double(rng() % 2000000) / double(1 + rng() % 1000); break;
          case 4: v = unit(rng) * std::pow(10.0, int(rng() % 40) - 20); break;
          default: v = unit(rng) * 1e6; break;
        }
        if (rng() % 2)
            v = -v;
        const std::string want = printfReference(v);
        if (dumped(v) != want && ++mismatches <= 5)
            ADD_FAILURE() << "dump of " << want << " gave " << dumped(v);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Json, IntegerTextIsPinned)
{
    EXPECT_EQ(dumped(0.0), "0");
    EXPECT_EQ(dumped(-0.0), "0");
    EXPECT_EQ(dumped(-42.0), "-42");
    // Both sides of the integer fast path (|v| < 1e15).
    EXPECT_EQ(dumped(999999999999999.0), "999999999999999");
    EXPECT_EQ(dumped(-999999999999999.0), "-999999999999999");
    EXPECT_EQ(dumped(1e15), "1e+15");
    EXPECT_EQ(dumped(1e21), "1e+21");
    EXPECT_EQ(dumped(3435973836800.0), "3435973836800");
}

TEST(Json, StringTextIsPinned)
{
    // Quote, backslash, newline, tab, CR and other control bytes are
    // escaped; DEL and UTF-8 bytes pass through untouched.
    JsonValue j = JsonValue::string(
        "q\"b\\s\nn\tt\x01u\x1f\r\b\x7f\xc3\xa9\xe2\x86\x92 end");
    EXPECT_EQ(j.dump(), "\"q\\\"b\\\\s\\nn\\tt\\u0001u\\u001f\\r\\u0008"
                        "\x7f\xc3\xa9\xe2\x86\x92 end\"");
    EXPECT_EQ(JsonValue::string("").dump(), "\"\"");
    EXPECT_EQ(JsonValue::string("plain").dump(), "\"plain\"");
    // Keys are escaped the same way.
    JsonValue obj = JsonValue::object();
    obj.set("k\"\n", JsonValue::string("\t"));
    EXPECT_EQ(obj.dump(), R"({"k\"\n":"\t"})");
}

TEST(Json, DocumentTextIsPinned)
{
    JsonValue doc = JsonValue::object();
    doc.set("n", JsonValue::number(0.1 + 0.2));
    doc.set("a", JsonValue::array()
                     .push(JsonValue::number(1))
                     .push(JsonValue::boolean(false))
                     .push(JsonValue())
                     .push(JsonValue::object()));
    doc.set("e", JsonValue::array());
    EXPECT_EQ(doc.dump(),
              R"({"n":0.30000000000000004,"a":[1,false,null,{}],"e":[]})");
    EXPECT_EQ(doc.dump(2), "{\n"
                           "  \"n\": 0.30000000000000004,\n"
                           "  \"a\": [\n"
                           "    1,\n"
                           "    false,\n"
                           "    null,\n"
                           "    {}\n"
                           "  ],\n"
                           "  \"e\": []\n"
                           "}");
}

} // namespace
} // namespace optimus
