// Small string helpers (formatting, splitting) shared across modules.
#pragma once

#include <string>
#include <vector>

namespace dv {

std::vector<std::string> split(const std::string& s, char sep);
std::string trim(const std::string& s);
std::string join(const std::vector<std::string>& parts, const std::string& sep);
bool starts_with(const std::string& s, const std::string& prefix);
std::string to_lower(std::string s);

/// "1.2 GB"-style human readable byte count.
std::string human_bytes(double bytes);

/// Appends `v` in fixed notation with `max_decimals` (0..64) decimals,
/// then drops trailing zeros and a trailing '.': the bytes of
/// snprintf("%.*f") trimmed ("1.5", "-0", "12"). NaN and infinities are
/// written "nan", "inf" and "-inf". The one fixed-point formatter of the
/// document writers (SVG, HTML, CSV export).
void append_fixed(std::string& out, double v, int max_decimals = 6);

/// append_fixed into a fresh string.
std::string fmt_double(double v, int max_decimals = 6);

}  // namespace dv
