#include "util/str.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "util/common.hpp"

namespace dv {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), bytes < 10 ? "%.2f %s" : "%.1f %s", bytes,
                units[u]);
  return buf;
}

void append_fixed(std::string& out, double v, int max_decimals) {
  // Integer fast path. 10^d is exact for d <= 9, so a = |v|·10^d is the
  // exact product rounded once. Below 2^32 every k + 1/2 is a double, and
  // rounding is monotone, so a lies on the same side of k + 1/2 as the
  // exact product, or on it: unless a's fraction is exactly one half, a
  // rounds to the integer "%.*f" rounds to. Print that integer's digits.
  // NaN, infinities and those halves fall through to the general path.
  if (static_cast<unsigned>(max_decimals) <= 9) {
    static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4,
                                        1e5, 1e6, 1e7, 1e8, 1e9};
    const double a = std::fabs(v) * kPow10[max_decimals];
    if (a < 0x1p32) {
      const auto whole = static_cast<std::uint64_t>(a);
      const double frac = a - static_cast<double>(whole);
      if (frac != 0.5) {
        std::uint64_t n = whole + (frac > 0.5);
        // Digits of n right to left: the decimals (zeros trimmed), then
        // the integer part.
        char digits[1 + 10 + 1];
        char* const end = digits + sizeof(digits);
        char* p = end;
        int d = max_decimals;
        while (d > 0 && n % 10 == 0) {
          n /= 10;
          --d;
        }
        if (d > 0) {
          for (; d > 0; --d) {
            *--p = static_cast<char>('0' + n % 10);
            n /= 10;
          }
          *--p = '.';
        }
        do {
          *--p = static_cast<char>('0' + n % 10);
          n /= 10;
        } while (n != 0);
        if (std::signbit(v)) *--p = '-';
        out.append(p, end);
        return;
      }
    }
  }
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
    return;
  }
  DV_REQUIRE(max_decimals >= 0 && max_decimals <= 64,
             "append_fixed: max_decimals must be in [0, 64]");
  // Sign, 309 integer digits of DBL_MAX, '.', the decimals.
  char buf[1 + 309 + 1 + 64];
  // to_chars is specified as printf in the C locale: the same bytes as
  // "%.*f", without the locale lookup and with no string per number.
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                    max_decimals)
          .ptr;
  if (max_decimals > 0) {
    while (end[-1] == '0') --end;
    if (end[-1] == '.') --end;
  }
  out.append(buf, end);
}

std::string fmt_double(double v, int max_decimals) {
  std::string s;
  append_fixed(s, v, max_decimals);
  return s;
}

}  // namespace dv
