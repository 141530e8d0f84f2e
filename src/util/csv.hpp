// Tiny CSV writer for the `export` command's result tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dv {

/// In-memory CSV table: a header row plus string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Writes with minimal quoting (fields containing , " or newline get quoted).
void write_csv(std::ostream& os, const CsvTable& table);

}  // namespace dv
