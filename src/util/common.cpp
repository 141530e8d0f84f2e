#include "util/common.hpp"

#include <sstream>
#include <string_view>

namespace dv::detail {

void fail(const std::string& msg) { throw Error(msg); }

void fail_invariant(const char* expr, const char* file, int line,
                    const std::string& msg) {
  // The path relative to the source root, where this file's path ends in
  // src/util/common.cpp.
  const std::string_view self = __FILE__;
  const auto root = self.substr(0, self.rfind("src/util/common.cpp"));
  std::string_view path = file;
  if (path.substr(0, root.size()) == root) path.remove_prefix(root.size());
  std::ostringstream os;
  os << "invariant failed: " << msg << " [" << expr << " at " << path << ":"
     << line << "]";
  throw Error(os.str());
}

}  // namespace dv::detail
