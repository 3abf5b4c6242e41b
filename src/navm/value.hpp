// Payload helpers for the numerical analyst's VM: wrap scalars, vectors and
// small structs with faithful wire-size accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sysvm/message.hpp"

namespace fem2::navm {

using sysvm::Payload;

inline Payload payload_int(std::int64_t v) { return Payload::of(v, 8); }
inline Payload payload_real(double v) { return Payload::of(v, 8); }
inline Payload payload_reals(std::vector<double> v) {
  const std::size_t n = v.size();
  return Payload::of(std::move(v), n * sizeof(double) + 16);
}

/// Wrap any struct; `bytes` must be supplied by the caller (wire size).
template <typename T>
Payload payload_struct(T v, std::size_t bytes) {
  return Payload::of(std::move(v), bytes);
}

inline std::int64_t as_int(const Payload& p) { return p.as<std::int64_t>(); }
inline double as_real(const Payload& p) { return p.as<double>(); }
inline const std::vector<double>& as_reals(const Payload& p) {
  return p.as<std::vector<double>>();
}

}  // namespace fem2::navm
