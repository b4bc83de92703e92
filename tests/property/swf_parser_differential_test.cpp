// Differential test: SwfParser (records parsed in place, integers read by
// from_chars) must agree with the split-based reference parser on seeded
// traces: every record, records(), malformed() and lines() under Skip,
// and the line each throws on under Strict. The traces mix well-formed
// records with wrong field counts; fractional, signed, '+'-prefixed,
// huge, inf/nan and -0 tokens; tabs and runs of blanks; a stray '\r'
// inside a token; CRLF endings; directives and blank lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "reference_swf_parser.hpp"
#include "workload/swf/swf_parser.hpp"

namespace dbs::wl::swf {

void PrintTo(const SwfRecord& r, std::ostream* os) {
  for (const std::int64_t v :
       {r.job_number, r.submit_s, r.wait_s, r.run_s, r.used_procs,
        r.avg_cpu_s, r.used_mem_kb, r.req_procs, r.req_time_s, r.req_mem_kb,
        r.status, r.user, r.group, r.executable, r.queue, r.partition,
        r.preceding_job, r.think_time_s})
    *os << v << ' ';
  *os << (r.out_of_range ? "out_of_range" : "in_range");
}

namespace {

using testing::ReferenceSwfParser;

/// Tokens that parse as a field, each chosen to probe where from_chars
/// and the strtod + llround path could part ways.
constexpr std::initializer_list<const char*> kNumericTokens = {
    "0", "-0", "+0", "007", "-007", "+5", "12.5", "0.5", "-2.5", "2.4999",
    "-0.0", ".5", "5.", "1e3", "1E3", "-1e3", "0x1A", "-0x10", "\v5",
    // The 2^53 edge: above it, strtod rounds odd integers to even.
    "9007199254740992", "9007199254740993", "-9007199254740992",
    "-9007199254740993", "-9007199254740994", "-18014398509481987",
    // int64 edges, and past them.
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "-99999999999999999999",
    "1e300", "-1e300", "1e400",
    // Non-finite.
    "inf", "-inf", "+inf", "infinity", "nan", "-nan", "NaN", "nan(1)",
    // A stray carriage return inside a token.
    "5\r", "-1\r", "\r5"};

/// Tokens that make a line malformed.
constexpr std::initializer_list<const char*> kGarbageTokens = {
    "abc", "5x", "-", "+", ".", "--1", "1-", "5\v", "\r", "1,5", "0x"};

class LineGen {
 public:
  LineGen(std::uint64_t seed, bool clean) : rng_(seed), clean_(clean) {}

  /// A whole trace of `lines` lines, the last one possibly unterminated.
  std::string trace(int lines) {
    std::string out;
    for (int i = 0; i < lines; ++i) {
      out += line();
      out += i + 1 < lines || rng_.next_below(2) == 0 ? ending() : "";
    }
    return out;
  }

 private:
  std::string line() {
    switch (rng_.next_below(clean_ ? 12 : 16)) {
      case 0:
        return directive();
      case 1:
        return pick({"", "   ", "\t", "\r"});
      case 12:
      case 13:  // wrong field count
        return record(static_cast<int>(rng_.next_below(26)), false);
      case 14:
      case 15:  // one bad token among 18
        return record(18, true);
      default:
        return record(18, false);
    }
  }

  const char* directive() {
    return pick({"; MaxProcs: 128", "; MaxJobs:  1500", ";", "; Version",
                 ";MaxNodes: x", "  ; Note: stray"});
  }

  std::string record(int fields, bool one_bad) {
    const std::uint64_t bad = one_bad ? rng_.next_below(18) : 18;
    std::string out = rng_.next_below(4) == 0 ? blanks() : "";
    for (int f = 0; f < fields; ++f) {
      if (f > 0) out += blanks();
      out += static_cast<std::uint64_t>(f) == bad ? pick(kGarbageTokens)
                                                  : token();
    }
    if (rng_.next_below(4) == 0) out += blanks();
    return out;
  }

  std::string token() {
    const std::uint64_t k = rng_.next_below(20);
    if (k < 9) return "-1";
    if (k < 14) {
      // Non-negative integers of every width up to int64's.
      const std::uint64_t bits = rng_.next_below(64);
      return std::to_string(rng_.next_u64() >> (63 - bits) >> 1);
    }
    if (k < 16) {
      // Negative integers around and past the 2^53 exactness limit.
      const std::uint64_t bits = 50 + rng_.next_below(13);
      return std::to_string(
          -static_cast<std::int64_t>(rng_.next_u64() >> (64 - bits)) - 1);
    }
    if (k < 17) return std::to_string(rng_.next_below(100000)) + "." +
                       std::to_string(rng_.next_below(1000));
    return pick(kNumericTokens);
  }

  const char* blanks() {
    return pick({" ", " ", " ", "\t", "  ", " \t ", "\t\t", "     "});
  }

  /// "\r\r\n" leaves a '\r' behind, a token of its own after a trailing
  /// blank: only dirty traces get it.
  const char* ending() {
    return clean_ ? pick({"\n", "\r\n"})
                  : pick({"\n", "\n", "\r\n", "\r\r\n"});
  }

  const char* pick(std::initializer_list<const char*> from) {
    return from.begin()[rng_.next_below(from.size())];
  }

  Rng rng_;
  bool clean_;
};

/// Totals over all seeds, so the test can assert that it exercised what
/// it claims to.
struct Coverage {
  std::uint64_t records = 0;
  std::uint64_t malformed = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t strict_throws = 0;
  std::uint64_t strict_clean = 0;
};

void compare_skip(const std::string& text, bool read_header,
                  Coverage& coverage) {
  std::istringstream a(text);
  std::istringstream b(text);
  SwfParser mine(a, MalformedPolicy::Skip);
  ReferenceSwfParser ref(b, MalformedPolicy::Skip);
  if (read_header) {
    mine.read_header();
    ref.read_header();
  }
  for (;;) {
    SwfRecord got;
    SwfRecord want;
    const bool more = mine.next(got);
    ASSERT_EQ(more, ref.next(want)) << "line " << ref.lines();
    ASSERT_EQ(mine.lines(), ref.lines());
    if (!more) break;
    ASSERT_EQ(got, want) << "line " << ref.lines();
    if (got.out_of_range) ++coverage.out_of_range;
  }
  EXPECT_EQ(mine.records(), ref.records());
  EXPECT_EQ(mine.malformed(), ref.malformed());
  EXPECT_EQ(mine.header().directives, ref.header().directives);
  EXPECT_EQ(mine.header().max_procs, ref.header().max_procs);
  coverage.records += ref.records();
  coverage.malformed += ref.malformed();
}

/// Runs `parser` under Strict to its end; the error text if it threw,
/// from "SWF line" on (what() leads with the throwing source location).
template <class Parser>
std::optional<std::string> strict_error(Parser& parser) {
  try {
    SwfRecord r;
    while (parser.next(r)) {
    }
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    return what.substr(std::min(what.find("SWF line"), what.size()));
  }
  return std::nullopt;
}

void compare_strict(const std::string& text, Coverage& coverage) {
  std::istringstream a(text);
  std::istringstream b(text);
  SwfParser mine(a, MalformedPolicy::Strict);
  ReferenceSwfParser ref(b, MalformedPolicy::Strict);
  const std::optional<std::string> got = strict_error(mine);
  const std::optional<std::string> want = strict_error(ref);
  ASSERT_EQ(got, want);
  EXPECT_EQ(mine.lines(), ref.lines());
  EXPECT_EQ(mine.records(), ref.records());
  ++(want ? coverage.strict_throws : coverage.strict_clean);
}

TEST(SwfParserDifferential, AgreesWithSplitReference) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LineGen gen(seed, /*clean=*/seed % 4 == 0);
    const std::string text = gen.trace(150);
    compare_skip(text, seed % 3 == 0, coverage);
    compare_strict(text, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.records, 10000u);
  EXPECT_GT(coverage.malformed, 1000u);
  EXPECT_GT(coverage.out_of_range, 100u);
  EXPECT_GT(coverage.strict_throws, 50u);
  EXPECT_GT(coverage.strict_clean, 10u);
}

}  // namespace
}  // namespace dbs::wl::swf
