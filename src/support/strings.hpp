// Small string utilities shared by the command language and the benches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fem2::support {

/// Split on a delimiter; empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

std::string_view trim(std::string_view s);

bool iequals(std::string_view a, std::string_view b);

/// Human-readable byte count: "1.5 KiB", "3.2 MiB", ...
std::string format_bytes(std::uint64_t bytes);

/// Group digits: 1234567 -> "1,234,567".
std::string format_count(std::uint64_t n);

/// Fixed-precision double without trailing zero noise.
std::string format_double(double x, int precision = 3);

}  // namespace fem2::support
