/**
 * @file
 * Unit tests for the util module: units, error helpers, tables.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/table.h"
#include "util/units.h"

namespace optimus {
namespace {

TEST(Units, ConstantsAreConsistent)
{
    EXPECT_DOUBLE_EQ(KB * 1000.0, MB);
    EXPECT_DOUBLE_EQ(MB * 1000.0, GB);
    EXPECT_DOUBLE_EQ(GB * 1000.0, TB);
    EXPECT_DOUBLE_EQ(KiB * 1024.0, MiB);
    EXPECT_DOUBLE_EQ(MiB * 1024.0, GiB);
    EXPECT_DOUBLE_EQ(TFLOPS, 1e12);
    EXPECT_DOUBLE_EQ(GBps, 1e9);
}

TEST(Units, FormatBytesPicksSuffix)
{
    EXPECT_EQ(formatBytes(512.0), "512.00 B");
    EXPECT_EQ(formatBytes(80 * GiB), "80.00 GiB");
    EXPECT_EQ(formatBytes(1.5 * MiB), "1.50 MiB");
}

TEST(Units, FormatTimeAdaptsScale)
{
    EXPECT_EQ(formatTime(1.5), "1.500 s");
    EXPECT_EQ(formatTime(2.5e-3), "2.500 ms");
    EXPECT_EQ(formatTime(41.3e-6), "41.300 us");
    EXPECT_EQ(formatTime(12e-9), "12.000 ns");
}

TEST(Units, FormatRates)
{
    EXPECT_EQ(formatFlops(312 * TFLOPS), "312.00 TFLOPS");
    EXPECT_EQ(formatBandwidth(1.9 * TBps), "1.90 TB/s");
}

TEST(Units, RelativeErrorPct)
{
    EXPECT_DOUBLE_EQ(relativeErrorPct(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(relativeErrorPct(90.0, 100.0), 10.0);
    // Zero reference: exact when the prediction is also zero,
    // undefined (NaN) otherwise — a silent 0% would mask the miss.
    EXPECT_DOUBLE_EQ(relativeErrorPct(0.0, 0.0), 0.0);
    EXPECT_TRUE(std::isnan(relativeErrorPct(5.0, 0.0)));
}

TEST(Units, FormatErrorPct)
{
    EXPECT_EQ(formatErrorPct(12.34), "12.3");
    EXPECT_EQ(formatErrorPct(0.0), "0.0");
    EXPECT_EQ(formatErrorPct(relativeErrorPct(5.0, 0.0)), "n/a");
}

TEST(Units, BitRateHelpers)
{
    // 400G InfiniBand NDR: 400 Gb/s = 50 GB/s.
    EXPECT_DOUBLE_EQ(400 * Gbps, 50 * GBps);
    EXPECT_DOUBLE_EQ(Gbps * 8.0, GB);
    EXPECT_DOUBLE_EQ(Mbps * 8.0, MB);
    EXPECT_DOUBLE_EQ(Tbps * 8.0, TB);
    EXPECT_DOUBLE_EQ(1000.0 * Mbps, Gbps);
    EXPECT_DOUBLE_EQ(1000.0 * Gbps, Tbps);
}

TEST(Error, CheckConfigThrowsWithMessage)
{
    EXPECT_NO_THROW(checkConfig(true, "fine"));
    try {
        checkConfig(false, "bad thing");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad thing"),
                  std::string::npos);
    }
}

TEST(Error, CheckPositive)
{
    EXPECT_NO_THROW(checkPositive(1.0, "x"));
    EXPECT_THROW(checkPositive(0.0, "x"), ConfigError);
    EXPECT_THROW(checkPositive(-2.0, "x"), ConfigError);
    EXPECT_THROW(checkPositive(0LL, "n"), ConfigError);
    EXPECT_NO_THROW(checkPositive(3LL, "n"));
}

/** what() of the ConfigError @p f throws, or a marker if none. */
template <class F>
std::string
configErrorText(F &&f)
{
    try {
        f();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "(no ConfigError)";
}

TEST(Error, CheckPositiveMessagesAreExact)
{
    EXPECT_EQ(configErrorText([] { checkPositive(0.0, "gemm x"); }),
              "config error: gemm x must be positive, got 0.000000");
    EXPECT_EQ(configErrorText([] { checkPositive(-2.5, "x"); }),
              "config error: x must be positive, got -2.500000");
    // A NaN is not positive: the check is !(x > 0), not x <= 0.
    EXPECT_EQ(configErrorText([] {
                  checkPositive(std::numeric_limits<double>::quiet_NaN(),
                                "tile search capacity");
              }),
              "config error: tile search capacity must be positive, "
              "got nan");
    EXPECT_EQ(configErrorText([] { checkPositive(0LL, "gemm m"); }),
              "config error: gemm m must be positive, got 0");
    EXPECT_EQ(configErrorText([] { checkPositive(-7LL, "batch"); }),
              "config error: batch must be positive, got -7");
    const std::string name = "runtime name";
    EXPECT_EQ(configErrorText([&] { checkPositive(0LL, name); }),
              "config error: runtime name must be positive, got 0");
}

TEST(Table, RowBuilderAndAccess)
{
    Table t({"a", "b", "c"});
    t.beginRow().cell("x").cell(3.14159, 2).cell(7LL);
    t.endRow();
    ASSERT_EQ(t.rowCount(), 1u);
    EXPECT_EQ(t.at(0, 0), "x");
    EXPECT_EQ(t.at(0, 1), "3.14");
    EXPECT_EQ(t.at(0, 2), "7");
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), ConfigError);
    EXPECT_THROW(t.at(0, 0), ConfigError);
}

TEST(Table, PrintAlignsColumns)
{
    Table t({"name", "v"});
    t.addRow({"long-name", "1"});
    t.addRow({"x", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvQuotesCommas)
{
    Table t({"name", "v"});
    t.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "name,v\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

/** Text of one fixed-precision Table cell. */
std::string
fixedCell(double v, int precision)
{
    Table t({"v"});
    t.beginRow().cell(v, precision);
    t.endRow();
    return t.at(0, 0);
}

TEST(Table, FixedCellTextIsPinned)
{
    // printf("%.*f") rules: round half to even on the exact binary
    // value, keep the sign of negative zero.
    EXPECT_EQ(fixedCell(2.675, 2), "2.67");
    EXPECT_EQ(fixedCell(2.675, 0), "3");
    EXPECT_EQ(fixedCell(0.5, 0), "0");
    EXPECT_EQ(fixedCell(1.5, 0), "2");
    EXPECT_EQ(fixedCell(2.5, 0), "2");
    EXPECT_EQ(fixedCell(-0.0, 2), "-0.00");
    EXPECT_EQ(fixedCell(-0.001, 1), "-0.0");
    EXPECT_EQ(fixedCell(123.456789, 1), "123.5");
    EXPECT_EQ(fixedCell(123.456789, 3), "123.457");
    EXPECT_EQ(fixedCell(123.456789, 4), "123.4568");
    EXPECT_EQ(fixedCell(123.456789, 6), "123.456789");
    EXPECT_EQ(fixedCell(1e15 + 0.3, 2), "1000000000000000.25");
    EXPECT_EQ(fixedCell(3435973836800.0, 0), "3435973836800");
}

TEST(Table, FixedCellTextMatchesPrintfReference)
{
    std::mt19937_64 rng(20240611);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    int mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
        const double v = unit(rng) * std::pow(10.0, int(rng() % 60) - 20);
        const int precision = int(rng() % 7);
        char want[128];
        std::snprintf(want, sizeof(want), "%.*f", precision, v);
        if (fixedCell(v, precision) != want && ++mismatches <= 5)
            ADD_FAILURE() << want << " at precision " << precision
                          << " gave " << fixedCell(v, precision);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Table, HugeFixedCellIsNotTruncated)
{
    // 1e100 as a double has 101 integer digits in fixed notation.
    EXPECT_EQ(fixedCell(1e100, 2),
              "10000000000000000159028911097599180468360808563945"
              "28138978132755774783877217038106081346998585681510"
              "4.00");
    const std::string max = fixedCell(-1.7976931348623157e308, 32);
    EXPECT_EQ(max.size(), 1u + 309u + 1u + 32u);
    EXPECT_EQ(max.substr(0, 6), "-17976");
    EXPECT_THROW(fixedCell(1.0, -1), ConfigError);
    EXPECT_THROW(fixedCell(1.0, 33), ConfigError);
}

TEST(Table, BuilderMisuseThrows)
{
    Table t({"a"});
    t.beginRow();
    EXPECT_THROW(t.beginRow(), ConfigError);
    t.cell("v");
    t.endRow();
    EXPECT_THROW(t.endRow(), ConfigError);
    EXPECT_THROW(t.cell("loose"), ConfigError);
}

} // namespace
} // namespace optimus
