#include "support/strings.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

namespace fem2::support {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string_view> views;
  split_ws(s, views);
  return {views.begin(), views.end()};
}

void split_ws(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::optional<double> parse_double(std::string_view token) {
  // from_chars takes no '+'; strip one, but not in front of a '-'.
  if (token.starts_with('+')) {
    token.remove_prefix(1);
    if (token.starts_with('-')) return std::nullopt;
  }
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_index(std::string_view token) {
  std::size_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < std::size(kUnits)) {
    v /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  if (unit == 0) {
    os << bytes << " B";
  } else {
    os.precision(1);
    os << std::fixed << v << " " << kUnits[unit];
  }
  return os.str();
}

std::string format_count(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_double(double x, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << x;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace fem2::support
