// serdes.hpp — the exact text codec every wire format in the tree speaks.
//
// A format is written down once, as a field list templated on the
// direction of travel:
//
//   template <class Io, class M>  // M is `const Moments` or `Moments`.
//   void MomentsFields(Io& io, M& m) {
//     io.Line("moments", m.count, m.mean, m.m2);
//   }
//
// TextWriter runs those calls to print a value and TextReader runs the
// very same calls to parse it back, so a format's field order has one
// home and its two directions cannot drift apart.  A string literal is a
// framing token the reader must find verbatim; a std::string is a word
// (non-empty, whitespace-free); integers travel as unsigned decimals,
// bools as 0/1.  Items on a line are separated by one space and Line()
// closes the line.  Readers are whitespace-insensitive, run their checks
// after the field list returns, and never size storage from a count read
// off the wire: a lying count ends in a missing token, not in an
// allocation sized by the lie.
//
// Doubles travel as hexfloats: exact round trip for every finite double,
// no locale or precision pitfalls ("inf"/"nan" for the non-finite values,
// whose payloads no consumer merges on).  Readers throw
// std::invalid_argument on malformed input, naming the offending token.
#pragma once

#include <concepts>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace shep::serdes {

void WriteDouble(std::ostream& os, double value);
double ReadDouble(std::istream& is);
std::uint64_t ReadU64(std::istream& is);
/// Reads one token and requires it to equal `keyword` (format framing).
void ExpectToken(std::istream& is, std::string_view keyword);

/// True when `text` reads back as one token: non-empty, no whitespace.
bool IsWord(std::string_view text);

/// FNV-1a 64 over `bytes` (see the .cpp for its offset basis).  Not
/// cryptographic: the frame checksum and the plan fingerprint only have to
/// make accidental mismatches fail loudly.
std::uint64_t Fnv1a64(std::string_view bytes);

/// Prints a value by running its field list; see the file comment.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& os) : os_(os) {}

  /// Each item as a token, word, integer, flag or double, by its type.
  template <class... Items>
  void Fields(const Items&... items) {
    (Field(items), ...);
  }
  /// Fields(items...), then closes the line (if one is open).
  template <class... Items>
  void Line(const Items&... items) {
    Fields(items...);
    if (open_) os_ << '\n';
    open_ = false;
  }
  /// An enum spelled by its display name, so reordering it keeps the
  /// format.
  template <class E, class ToName, class FromName>
  void Named(const E& value, ToName to_name, FromName /*from_name*/) {
    Word(to_name(value));
  }
  /// The element count, then each element through `each`.
  template <class T, class Each>
  void Seq(const std::vector<T>& items, Each each) {
    Field(items.size());
    for (const T& item : items) each(item);
  }
  template <class T>
  void Seq(const std::vector<T>& items) {
    Seq(items, [this](const T& item) { Field(item); });
  }
  /// A value with a multi-line format of its own (its Serialize), started
  /// on a fresh line.
  template <class T>
  void Object(const T& value) {
    Line();
    value.Serialize(os_);
  }

 private:
  std::ostream& Item() {
    if (open_) os_ << ' ';
    open_ = true;
    return os_;
  }
  void Field(const char* keyword) { Item() << keyword; }
  void Field(const std::string& word) { Word(word); }
  void Field(bool flag) { Item() << (flag ? 1 : 0); }
  void Field(double value) { WriteDouble(Item(), value); }
  template <std::integral T>
  void Field(T value) {
    Item() << value;
  }
  /// Throws std::invalid_argument unless IsWord(word): a word with a space
  /// would read back as two tokens and misalign everything after it.
  void Word(std::string_view word);

  std::ostream& os_;
  bool open_ = false;
};

/// Parses a value by running its field list; see the file comment.
class TextReader {
 public:
  explicit TextReader(std::istream& is) : is_(is) {}

  template <class... Items>
  void Fields(Items&&... items) {
    (Field(std::forward<Items>(items)), ...);
  }
  /// Line breaks are whitespace to the reader.
  template <class... Items>
  void Line(Items&&... items) {
    Fields(std::forward<Items>(items)...);
  }
  template <class E, class ToName, class FromName>
  void Named(E& value, ToName /*to_name*/, FromName from_name) {
    std::string name;
    Field(name);
    value = from_name(name);
  }
  template <class T, class Each>
  void Seq(std::vector<T>& items, Each each) {
    std::uint64_t count = 0;
    Field(count);
    items.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      T item{};
      each(item);
      items.push_back(std::move(item));
    }
  }
  template <class T>
  void Seq(std::vector<T>& items) {
    Seq(items, [this](T& item) { Field(item); });
  }
  template <class T>
  void Object(T& value) {
    value = T::Deserialize(is_);
  }

 private:
  void Field(const char* keyword) { ExpectToken(is_, keyword); }
  void Field(std::string& word);
  void Field(bool& flag);
  void Field(double& value) { value = ReadDouble(is_); }
  template <std::integral T>
  void Field(T& value) {
    const std::uint64_t read = ReadU64(is_);
    SHEP_REQUIRE(read <= static_cast<std::uint64_t>(
                             std::numeric_limits<T>::max()),
                 "serialized value out of range: " + std::to_string(read));
    value = static_cast<T>(read);
  }

  std::istream& is_;
};

}  // namespace shep::serdes
