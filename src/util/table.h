/**
 * @file
 * Lightweight aligned-text table used by benches and examples to print
 * the rows of the paper's tables and figure series. Also emits CSV so
 * figure data can be post-processed.
 */

#ifndef OPTIMUS_UTIL_TABLE_H
#define OPTIMUS_UTIL_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace optimus {

/**
 * A simple column-aligned table.
 *
 * Cells are strings; numeric helpers format with a fixed precision.
 * Column widths are computed on print.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a fully formed row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Begin building a row cell by cell. */
    Table &beginRow();
    /** Append a string cell to the row under construction. */
    Table &cell(const std::string &value);
    /**
     * Append a numeric cell with @p precision decimal digits
     * (printf "%.*f" text; 0 <= precision <= 32).
     */
    Table &cell(double value, int precision = 2);
    /** Append an integer cell. */
    Table &cell(long long value);
    /** Finish the row under construction. */
    void endRow();

    /** Number of data rows. */
    size_t rowCount() const { return rows_.size(); }
    /** Number of columns. */
    size_t columnCount() const { return headers_.size(); }

    /** Raw access to a cell (row-major), for tests. */
    const std::string &at(size_t row, size_t col) const;

    /** Print with aligned columns and a header separator. */
    void print(std::ostream &os) const;

    /**
     * Emit RFC-4180 CSV: cells containing commas, quotes or line
     * breaks are quoted, embedded quotes doubled.
     */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::string> pending_;
    bool building_ = false;
};

} // namespace optimus

#endif // OPTIMUS_UTIL_TABLE_H
