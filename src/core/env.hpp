#pragma once

/// \file env.hpp
/// \brief Strict environment-variable parsing.
///
/// The runtime's tuning knobs (PML_MP_EAGER_BYTES, PML_MP_COLLECTIVE_TIMEOUT_MS,
/// PML_CKPT, ...) are numeric. Historically they were read with atol/strtoull,
/// which silently map garbage to 0 and accept negative values — "abc" became a
/// 0-byte eager threshold (surprise all-rendezvous mode) and "-5" became a
/// giant unsigned timeout. These helpers accept only a full string of decimal
/// digits and reject everything else with a UsageError naming the variable, so
/// a typo fails loudly at job start instead of warping behaviour.
///
/// Header-only, so every layer can parse its own knobs: pml_obs reads
/// PML_OBS_RING_SPANS but cannot link pml_core.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "core/error.hpp"

namespace pml::env {

/// Strict decimal parse of \p text, attributed to variable \p name.
///
/// Accepts only a non-empty string of ASCII digits (no sign, no whitespace,
/// no trailing junk, no hex/octal prefixes) whose value fits in a uint64.
/// Anything else throws UsageError quoting \p name and \p text.
inline std::uint64_t parse_u64(const std::string& name, const std::string& text) {
  const auto bad = [&](const char* why) -> UsageError {
    return UsageError(name + "=\"" + text + "\": " + why +
                      " (expected a non-negative decimal integer)");
  };
  if (text.empty()) throw bad("empty value");
  std::uint64_t value = 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char c : text) {
    if (c < '0' || c > '9') throw bad("not a decimal digit string");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) throw bad("value overflows 64 bits");
    value = value * 10 + digit;
  }
  return value;
}

/// getenv(\p name) + parse_u64. nullopt when the variable is unset.
/// Set-but-malformed (including empty) throws UsageError.
inline std::optional<std::uint64_t> u64(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return parse_u64(name, raw);
}

}  // namespace pml::env
