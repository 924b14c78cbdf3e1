// Small string utilities shared by the command language, the model and
// result text codec, and the benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fem2::support {

/// Whitespace as C-locale isspace sees it: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Split on any whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// split_ws into views of `s`, reusing `out`'s storage (cleared first).
void split_ws(std::string_view s, std::vector<std::string_view>& out);

std::string_view trim(std::string_view s);

/// A whole token as a double: std::from_chars general format (fixed or
/// exponent notation, inf, infinity, nan, nan(...)) after one optional
/// leading '+'.  Hex floats, surrounding space, overflow and underflow to
/// zero give nullopt; subnormals parse.
std::optional<double> parse_double(std::string_view token);

/// A whole token as an unsigned decimal index, no sign; nullopt otherwise.
std::optional<std::size_t> parse_index(std::string_view token);

/// Human-readable byte count: "1.5 KiB", "3.2 MiB", ...
std::string format_bytes(std::uint64_t bytes);

/// Group digits: 1234567 -> "1,234,567".
std::string format_count(std::uint64_t n);

/// Fixed-precision double without trailing zero noise.
std::string format_double(double x, int precision = 3);

}  // namespace fem2::support
