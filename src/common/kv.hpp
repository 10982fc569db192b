#pragma once

// The one text codec of every gpufi boundary: what counts as a number (CLI
// flags, GPUFI_JOBS, plans, ports, serve specs and payloads, fabric
// messages, the syndrome DB) and how a "key=value\n" line is written and
// read (the serve and fabric payloads).
//
// Number grammar (parse_number):
//   - the whole token is consumed;
//   - integers are decimal digits, with a leading '-' only for a signed
//     type; no '+', no whitespace, no base prefix;
//   - a value the type cannot hold is rejected, never truncated;
//   - a double is read in std::from_chars' general format and must be
//     finite (no nan, no inf).

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace gpufi::kv {

template <class T>
std::optional<T> parse_number(std::string_view s) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// parse_number into `out`, its type deduced; `out` keeps its value when
/// `s` is rejected.
template <class T>
bool parse_number(std::string_view s, T& out) {
  const auto v = parse_number<T>(s);
  if (v) out = *v;
  return v.has_value();
}

/// Lossless double text: max_digits10 significant digits ("%.17g"), which
/// parse_number<double> reads back bit for bit.
std::string format_double(double v);

/// Appends one "key=value\n" line. Throws std::invalid_argument when the
/// value holds a newline, which would forge a line of its own.
void put_kv(std::string& out, std::string_view key, std::string_view value);
void put_kv(std::string& out, std::string_view key, std::uint64_t value);

/// Walks "key=value" lines in any order, skipping empty lines; the last
/// line may lack its '\n'. Stops with false at a line without '=' (setting
/// `error` when given) or at the first pair `fn` rejects.
bool for_each_kv(
    std::string_view payload, std::string* error,
    const std::function<bool(std::string_view key, std::string_view value)>&
        fn);

/// Strict in-order line cursor. Every take* advances; any malformed input
/// flips `ok` and makes the remaining takes no-ops, so decoders check once
/// at the end (or early where the control flow needs a count).
struct Cursor {
  std::string_view rest;
  bool ok = true;
  std::string error{};

  void fail(std::string msg);

  /// The next '\n'-terminated line; a missing '\n' fails ("truncated").
  std::string_view take_line();

  /// A "key=value" line with an exact key match; returns the value.
  std::string_view take_kv(std::string_view key);

  /// `s` in the number grammar as a T; fails (returning 0) otherwise.
  template <class T = std::uint64_t>
  T parse(std::string_view s) {
    if (!ok) return T{};
    const auto v = parse_number<T>(s);
    if (!v) fail("bad number: '" + std::string(s) + "'");
    return v.value_or(T{});
  }

  /// A "key=number" line.
  template <class T = std::uint64_t>
  T take(std::string_view key) {
    return parse<T>(take_kv(key));
  }
};

/// Space-separated field scanner over one line, failing through its
/// cursor.
struct Fields {
  std::string_view rest;
  Cursor* c;

  /// The next space-delimited token (empty at the end of the line).
  std::string_view next_token();

  template <class T = std::uint64_t>
  T next() {
    if (!c->ok) return T{};
    return c->parse<T>(next_token());
  }

  /// A numeric enum field; a value of n_values or more fails (returning
  /// the enum's zero value, never an out-of-range one).
  template <class Enum>
  Enum next_enum(std::uint64_t n_values) {
    const auto v = next();
    if (v < n_values) return static_cast<Enum>(v);
    c->fail("enum field out of range");
    return Enum{};
  }

  /// Fails unless the line has no fields left.
  void done();
};

}  // namespace gpufi::kv
