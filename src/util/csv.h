// Minimal RFC-4180-style CSV helpers for the campaign result serializers.
//
// Result rows are flat (strings, integers, doubles), so this is not a
// general CSV library: one record per line, comma separators, quoting only
// when a field contains a comma, quote, or newline. Doubles are formatted
// with max_digits10 significant digits so that write -> parse round-trips
// to the identical bit pattern.
#ifndef SBGP_UTIL_CSV_H
#define SBGP_UTIL_CSV_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbgp::util {

/// Quotes `field` per RFC 4180 if it contains a comma or quote; returns it
/// unchanged otherwise. Throws std::invalid_argument on embedded CR/LF:
/// the readers are line-based (one record per physical line), so a
/// newline-bearing field could not round-trip — better to fail the write
/// loudly than emit a file the reader rejects.
[[nodiscard]] std::string csv_field(std::string_view field);

/// Joins fields into one CSV record (no trailing newline).
[[nodiscard]] std::string csv_line(const std::vector<std::string>& fields);

/// Splits one CSV record into fields, honoring quotes and doubled-quote
/// escapes. Throws std::invalid_argument on unbalanced quoting and on a
/// carriage return or newline, which csv_field never writes.
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Shortest-exact decimal form of `v` (max_digits10 precision): parsing the
/// result with strtod yields the identical double.
[[nodiscard]] std::string format_double(double v);

/// Parses a double / unsigned integer field; throws std::invalid_argument
/// when `field` is not fully consumed by the parse.
[[nodiscard]] double parse_double(std::string_view field);
[[nodiscard]] std::uint64_t parse_u64(std::string_view field);

}  // namespace sbgp::util

#endif  // SBGP_UTIL_CSV_H
