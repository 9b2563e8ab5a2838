#include "util/csv.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sbgp::util {

std::string csv_field(std::string_view field) {
  if (field.find_first_of("\r\n") != std::string_view::npos) {
    throw std::invalid_argument(
        "csv_field: embedded newline cannot round-trip through the "
        "line-based readers");
  }
  if (field.find_first_of(",\"") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_line(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += csv_field(fields[i]);
  }
  return out;
}

std::vector<std::string> split_csv_line(std::string_view line) {
  if (line.find_first_of("\r\n") != std::string_view::npos) {
    throw std::invalid_argument("split_csv_line: embedded newline");
  }
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        throw std::invalid_argument("split_csv_line: quote inside bare field");
      }
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
    ++i;
  }
  if (quoted) {
    throw std::invalid_argument("split_csv_line: unterminated quoted field");
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double parse_double(std::string_view field) {
  const std::string s(field);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    throw std::invalid_argument("parse_double: bad field '" + s + "'");
  }
  return v;
}

std::uint64_t parse_u64(std::string_view field) {
  const std::string s(field);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      s.front() == '-') {
    throw std::invalid_argument("parse_u64: bad field '" + s + "'");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace sbgp::util
