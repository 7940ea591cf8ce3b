#include "common/table.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>

namespace adaptsim
{

namespace
{

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
            c != '-' && c != '+' && c != 'e' && c != 'E' && c != '%' &&
            c != 'x') {
            return false;
        }
    }
    return true;
}

} // namespace

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
TextTable::num(std::uint64_t value)
{
    return std::to_string(value);
}

std::string
TextTable::sci(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::scientific);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
TextTable::render() const
{
    std::size_t cols = header_.size();
    for (const auto &row : rows_)
        cols = std::max(cols, row.size());

    std::vector<std::size_t> width(cols, 0);
    auto widen = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row, bool align) {
        for (std::size_t c = 0; c < cols; ++c) {
            const std::string &cell = c < row.size() ? row[c] : "";
            const bool right = align && looksNumeric(cell);
            if (c)
                os << "  ";
            if (right)
                os << std::string(width[c] - cell.size(), ' ') << cell;
            else
                os << cell << std::string(width[c] - cell.size(), ' ');
        }
        os << '\n';
    };

    if (!header_.empty()) {
        emit(header_, false);
        std::size_t total = 0;
        for (std::size_t c = 0; c < cols; ++c)
            total += width[c] + (c ? 2 : 0);
        os << std::string(total, '-') << '\n';
    }
    for (const auto &row : rows_)
        emit(row, true);
    return os.str();
}

} // namespace adaptsim
