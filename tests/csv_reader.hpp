// CSV reader for the tests: parses what write_csv (the `export` command's
// writer) produces back into a CsvTable, and renders a table to a string
// through that writer. Header-only and free of gtest, like
// slice_oracle.hpp.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/csv.hpp"

namespace dv::testing {

inline std::string to_csv_string(const CsvTable& table) {
  std::ostringstream os;
  write_csv(os, table);
  return os.str();
}

/// Parses CSV with quoted-field support; the first row is the header.
inline CsvTable parse_csv(const std::string& text) {
  CsvTable out;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_data = false;

  auto end_field = [&] {
    row.push_back(field);
    field.clear();
  };
  auto end_row = [&] {
    end_field();
    if (out.header.empty()) {
      out.header = row;
    } else {
      out.rows.push_back(row);
    }
    row.clear();
    row_has_data = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_data = true;
        break;
      case ',':
        end_field();
        row_has_data = true;
        break;
      case '\r':
        break;
      case '\n':
        if (row_has_data || !field.empty() || !row.empty()) end_row();
        break;
      default:
        field.push_back(c);
        row_has_data = true;
    }
  }
  if (row_has_data || !field.empty() || !row.empty()) end_row();
  DV_REQUIRE(!in_quotes, "unterminated quoted csv field");
  return out;
}

}  // namespace dv::testing
