/**
 * @file
 * Plain-text table rendering for bench/example output.
 */

#ifndef ADAPTSIM_COMMON_TABLE_HH
#define ADAPTSIM_COMMON_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace adaptsim
{

/**
 * A simple column-aligned ASCII table.  Numeric-looking cells are
 * right-aligned, text cells left-aligned.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row (may have fewer cells than the header). */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p precision digits. */
    static std::string num(double value, int precision = 2);

    /** Convenience: format an integer. */
    static std::string num(std::uint64_t value);

    /** Convenience: scientific notation for wide-range values. */
    static std::string sci(double value, int precision = 2);

    /** Render the full table, with separator under the header. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_TABLE_HH
