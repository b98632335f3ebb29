#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pbw::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("Table::add_row: more cells than headers");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

std::string Table::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      out << (c == 0 ? "| " : " ") << cell
          << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& out) const { out << render(); }

}  // namespace pbw::util
