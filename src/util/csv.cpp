#include "util/csv.hpp"

#include <ostream>

namespace dv {

namespace {

void write_field(std::ostream& os, const std::string& f) {
  const bool needs_quote =
      f.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) {
    os << f;
    return;
  }
  os << '"';
  for (char c : f) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

void write_row(std::ostream& os, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) os << ',';
    write_field(os, row[i]);
  }
  os << '\n';
}

}  // namespace

void write_csv(std::ostream& os, const CsvTable& table) {
  write_row(os, table.header);
  for (const auto& row : table.rows) write_row(os, row);
}

}  // namespace dv
