#include "common/serdes.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "common/check.hpp"

namespace shep::serdes {

void WriteDouble(std::ostream& os, double value) {
  // Hexfloat is exact for every finite double; infinities and NaNs print
  // as "inf"/"nan", which strtod parses back (NaN payloads don't matter —
  // no serialized field ever merges on one).
  const auto flags = os.flags();
  os << std::hexfloat << value;
  os.flags(flags);
}

double ReadDouble(std::istream& is) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(!token.empty(), "unexpected end of serialized input");
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  // Reject overflowed decimals ("1e999" → ±HUGE_VAL + ERANGE): no
  // Serialize call emits them (hexfloat never overflows strtod), so one
  // in the wire text is corruption, not data.  Underflow (ERANGE with a
  // tiny result) stays accepted — subnormal hexfloats parse exactly.
  SHEP_REQUIRE(end == begin + token.size() &&
                   !(errno == ERANGE && std::abs(value) == HUGE_VAL),
               "malformed serialized double: " + token);
  return value;
}

std::uint64_t ReadU64(std::istream& is) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(!token.empty(), "unexpected end of serialized input");
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;  // strtoull reports overflow only through ERANGE.
  const unsigned long long value = std::strtoull(begin, &end, 10);
  SHEP_REQUIRE(end == begin + token.size() && token[0] != '-' &&
                   errno != ERANGE,
               "malformed serialized integer: " + token);
  return static_cast<std::uint64_t>(value);
}

void ExpectToken(std::istream& is, std::string_view keyword) {
  std::string token;
  is >> token;
  SHEP_REQUIRE(token == keyword,
               "expected `" + std::string(keyword) + "`, got `" + token + "`");
}

bool IsWord(std::string_view text) {
  // Exactly the characters operator>> stops at (std::isspace, "C" locale).
  return !text.empty() && text.find_first_of(" \t\n\v\f\r") ==
                              std::string_view::npos;
}

std::uint64_t Fnv1a64(std::string_view bytes) {
  // The offset basis is one digit short of the published 64-bit basis
  // (14695981039346656037).  Frame checksums on the wire and the
  // committed golden cell checksums were made with this one, so it stays.
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ull;  // FNV-1a 64 prime.
  }
  return hash;
}

void TextWriter::Word(std::string_view word) {
  SHEP_REQUIRE(IsWord(word), "a serialized word must be non-empty and "
                             "whitespace-free: `" + std::string(word) + "`");
  Item() << word;
}

void TextReader::Field(std::string& word) {
  word.clear();
  is_ >> word;
  SHEP_REQUIRE(!word.empty(), "unexpected end of serialized input");
}

void TextReader::Field(bool& flag) {
  const std::uint64_t value = ReadU64(is_);
  SHEP_REQUIRE(value <= 1, "serialized flag must be 0 or 1");
  flag = value == 1;
}

}  // namespace shep::serdes
