#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace fem2::support {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  FEM2_CHECK_MSG(rows_.empty(), "set_header after rows were added");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  FEM2_CHECK_MSG(header_.empty() || row.size() == header_.size(),
                 "row width does not match header");
  rows_.push_back(std::move(row));
}

Table::RowBuilder::~RowBuilder() { table_.add_row(std::move(cells_)); }

Table::RowBuilder& Table::RowBuilder::cell(std::string v) {
  cells_.push_back(std::move(v));
  return *this;
}
Table::RowBuilder& Table::RowBuilder::cell(const char* v) {
  cells_.emplace_back(v);
  return *this;
}
Table::RowBuilder& Table::RowBuilder::cell(std::uint64_t v) {
  cells_.push_back(format_count(v));
  return *this;
}
Table::RowBuilder& Table::RowBuilder::cell(std::int64_t v) {
  const auto magnitude = static_cast<std::uint64_t>(v);
  std::string text(v < 0 ? "-" : "");
  text += format_count(v < 0 ? 0 - magnitude : magnitude);
  cells_.push_back(std::move(text));
  return *this;
}
Table::RowBuilder& Table::RowBuilder::cell(int v) {
  return cell(static_cast<std::int64_t>(v));
}
Table::RowBuilder& Table::RowBuilder::cell(double v, int precision) {
  cells_.push_back(format_double(v, precision));
  return *this;
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto grow = [&](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << ' ' << cell << std::string(widths[i] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  rule();
  if (!header_.empty()) {
    line(header_);
    rule();
  }
  for (const auto& r : rows_) line(r);
  rule();
  return os.str();
}

void Table::print(std::ostream& os) const { os << render(); }

}  // namespace fem2::support
