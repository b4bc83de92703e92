#include "common/byte_codec.hpp"

#include "common/assert.hpp"

namespace dbs::common {

std::size_t Reader::count(std::size_t min_elem_bytes) {
  const std::uint32_t n = le<std::uint32_t>();
  if (static_cast<std::size_t>(n) * min_elem_bytes > remaining())
    fail(pos_ - 4, "array length exceeds the remaining bytes (" +
                       std::to_string(n) + " elements of at least " +
                       std::to_string(min_elem_bytes) + " bytes, " +
                       std::to_string(remaining()) + " left)");
  return n;
}

void Reader::truncated(std::size_t wanted) const {
  fail(pos_, "truncated (" + std::to_string(wanted) + " bytes needed, " +
                 std::to_string(remaining()) + " left)");
}

void Reader::fail(std::size_t at, const std::string& problem) const {
  throw precondition_error(std::string(what_) + " " + problem +
                           " at byte " + std::to_string(base_ + at));
}

}  // namespace dbs::common
