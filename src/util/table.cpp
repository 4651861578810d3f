#include "util/table.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "util/error.h"

namespace optimus {

namespace {

/** Largest decimal precision a numeric cell accepts. */
constexpr int kMaxPrecision = 32;

} // namespace

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    checkConfig(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    // Build the message only on failure: rows are added per kernel.
    if (cells.size() != headers_.size())
        throw ConfigError("row has " + std::to_string(cells.size()) +
                          " cells, table has " +
                          std::to_string(headers_.size()) + " columns");
    rows_.push_back(std::move(cells));
}

Table &
Table::beginRow()
{
    checkConfig(!building_, "beginRow called twice without endRow");
    building_ = true;
    pending_.clear();
    return *this;
}

Table &
Table::cell(const std::string &value)
{
    checkConfig(building_, "cell called outside beginRow/endRow");
    pending_.push_back(value);
    return *this;
}

Table &
Table::cell(double value, int precision)
{
    checkConfig(precision >= 0 && precision <= kMaxPrecision,
                "cell precision out of range");
    // printf("%.*f") text; fixed notation of DBL_MAX has 309 integer
    // digits, plus the sign, the point and the fraction.
    char buf[1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 +
             kMaxPrecision];
    char *end = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::fixed, precision)
                    .ptr;
    return cell(std::string(buf, end));
}

Table &
Table::cell(long long value)
{
    return cell(std::to_string(value));
}

void
Table::endRow()
{
    checkConfig(building_, "endRow without beginRow");
    building_ = false;
    addRow(std::move(pending_));
    pending_.clear();
}

const std::string &
Table::at(size_t row, size_t col) const
{
    checkConfig(row < rows_.size(), "row index out of range");
    checkConfig(col < headers_.size(), "column index out of range");
    return rows_[row][col];
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    print_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            const std::string &cell = row[c];
            // RFC 4180: a field containing a separator, a quote or a
            // line break is quoted, with embedded quotes doubled —
            // kernel/category names like `attn "qk^T", fp16` must not
            // corrupt the row structure.
            bool quote =
                cell.find_first_of(",\"\n\r") != std::string::npos;
            if (quote) {
                os << '"';
                for (char ch : cell) {
                    if (ch == '"')
                        os << '"';
                    os << ch;
                }
                os << '"';
            } else {
                os << cell;
            }
            if (c + 1 < row.size())
                os << ',';
        }
        os << '\n';
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
}

} // namespace optimus
