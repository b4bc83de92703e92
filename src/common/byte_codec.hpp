// The one little-endian byte codec behind every durable file: service
// snapshots, WAL frames and flight-recorder files (DESIGN.md §10, §13).
// Integers are stored at their declared width, doubles as their IEEE-754
// bits, strings length-prefixed and arrays as a u32 count, then the
// elements. Writer and Reader have the same methods, so a format's field
// list is written once, as a template both directions run:
//
//   template <class Io, Is<Credentials> C>
//   void fields(Io& io, C& c) { io.str(c.user); io.str(c.group); }
//
// The Reader checks every read and every element count against the bytes
// left and throws precondition_error naming the data and the byte offset.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::common {

template <class T>
inline void store_le(unsigned char* p, T v) {
  static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
  auto u = static_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
}

template <class T>
inline T load_le(const unsigned char* p) {
  std::uint64_t u = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    u |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return static_cast<T>(u);
}

/// `S` is `T` (decoding into it) or `const T` (encoding it).
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/// Appends encoded fields to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<unsigned char>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(v); }
  void i64(std::int64_t v) { le(v); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  template <class Tag>
  void id(detail::TaggedId<Tag> v) { u64(v.value()); }
  void time(Time t) { i64(t.as_micros()); }
  void duration(Duration d) { i64(d.as_micros()); }
  void opt_time(const std::optional<Time>& t) {
    boolean(t.has_value());
    i64(t ? t->as_micros() : 0);
  }
  /// A one-byte enum; the range is the Reader's to check.
  template <class E>
  void enum8(E v, E = {}, E = {}, std::string_view /*field*/ = {}) {
    u8(static_cast<std::uint8_t>(v));
  }
  void str(std::string_view s) { text<std::uint32_t>(s); }
  void str16(std::string_view s) { text<std::uint16_t>(s); }
  void pad(std::size_t n) { out_.insert(out_.end(), n, 0); }
  /// A u32 count, then `each(element)`; `min_elem_bytes` bounds decoding.
  template <class Range, class Fn>
  void seq(const Range& range, std::size_t /*min_elem_bytes*/, Fn&& each) {
    u32(static_cast<std::uint32_t>(range.size()));
    for (const auto& element : range) each(element);
  }

 private:
  template <class T>
  void le(T v) {
    out_.resize(out_.size() + sizeof(T));
    store_le<T>(out_.data() + out_.size() - sizeof(T), v);
  }
  template <class Len>
  void text(std::string_view s) {
    le(static_cast<Len>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  std::vector<unsigned char>& out_;
};

/// Decodes fields from a byte range, bounds-checking every access.
class Reader {
 public:
  /// `what` names the data in errors ("snapshot"); `base` is the file
  /// offset of `data`, so errors give file offsets.
  Reader(const unsigned char* data, std::size_t size, std::string_view what,
         std::uint64_t base = 0)
      : data_(data), size_(size), what_(what), base_(base) {}

  void u8(std::uint8_t& v) { v = *take(1); }
  void u16(std::uint16_t& v) { v = le<std::uint16_t>(); }
  void u32(std::uint32_t& v) { v = le<std::uint32_t>(); }
  void u64(std::uint64_t& v) { v = le<std::uint64_t>(); }
  void i32(std::int32_t& v) { v = le<std::int32_t>(); }
  void i64(std::int64_t& v) { v = le<std::int64_t>(); }
  void f64(double& v) { v = std::bit_cast<double>(le<std::uint64_t>()); }
  void boolean(bool& v) { v = *take(1) != 0; }
  template <class Tag>
  void id(detail::TaggedId<Tag>& v) {
    v = detail::TaggedId<Tag>(le<std::uint64_t>());
  }
  void time(Time& t) { t = Time::from_micros(le<std::int64_t>()); }
  void duration(Duration& d) { d = Duration::micros(le<std::int64_t>()); }
  void opt_time(std::optional<Time>& t) {
    const bool has = *take(1) != 0;
    const Time at = Time::from_micros(le<std::int64_t>());
    t = has ? std::optional<Time>(at) : std::nullopt;
  }
  /// A one-byte enum. With a field name, a value outside [first, last]
  /// throws "<what> <field> out of range".
  template <class E>
  void enum8(E& v, E first = {}, E last = {}, std::string_view field = {}) {
    const std::uint8_t raw = *take(1);
    if (!field.empty() && (raw < static_cast<std::uint8_t>(first) ||
                           raw > static_cast<std::uint8_t>(last)))
      fail(pos_ - 1, std::string(field) + " out of range (" +
                         std::to_string(raw) + ")");
    v = static_cast<E>(raw);
  }
  void str(std::string& s) { text(s, le<std::uint32_t>()); }
  void str16(std::string& s) { text(s, le<std::uint16_t>()); }
  void pad(std::size_t n) { static_cast<void>(take(n)); }
  /// Resizes `v` to a u32 count, then runs `each` on every element. The
  /// count is checked first: count * min_elem_bytes must fit the bytes
  /// left, so a corrupt count cannot drive a huge allocation.
  template <class Vec, class Fn>
  void seq(Vec& v, std::size_t min_elem_bytes, Fn&& each) {
    v.resize(count(min_elem_bytes));
    for (auto& element : v) each(element);
  }
  /// The next `n` bytes, uninterpreted.
  [[nodiscard]] const unsigned char* bytes(std::size_t n) { return take(n); }
  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  const unsigned char* take(std::size_t n) {
    if (n > remaining()) truncated(n);
    pos_ += n;
    return data_ + pos_ - n;
  }
  template <class T>
  T le() { return load_le<T>(take(sizeof(T))); }
  void text(std::string& s, std::size_t n) {
    s.assign(reinterpret_cast<const char*>(take(n)), n);
  }
  [[nodiscard]] std::size_t count(std::size_t min_elem_bytes);
  [[noreturn]] void truncated(std::size_t wanted) const;
  /// Throws "<what> <problem> at byte <base + at>".
  [[noreturn]] void fail(std::size_t at, const std::string& problem) const;

  const unsigned char* data_;
  std::size_t size_;
  std::string_view what_;
  std::uint64_t base_;
  std::size_t pos_ = 0;
};

}  // namespace dbs::common
