// Aligned ASCII table printer for terminal views: `pbw-campaign list`,
// the `table1` summary and the examples.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pbw::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; missing cells render empty, extra cells are an error.
  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats numeric cells with %g-style formatting.
  static std::string num(double v, int precision = 5);
  static std::string integer(long long v);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_[i];
  }

  /// Renders with a header rule, columns padded to content width.
  [[nodiscard]] std::string render() const;
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pbw::util
