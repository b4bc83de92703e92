// The benchmark's own arithmetic: percentiles of raw samples, and spans
// recorded around calls into the library with the self time of each span
// derived from its children.
//
// Percentiles are always computed here, from every raw sample, never from
// a bucketed histogram: the library's obs::Histogram starts at 10 us, so
// sub-microsecond scheduler iterations would all land in its first bucket.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `samples` (q in (0, 1]): the smallest sample
/// with at least q * n samples at or below it. 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// One timed interval. `parent` is an index into the same log (-1 for a
/// root); `run` identifies the work item (one replay, one ESP run, one
/// service pass) the span belongs to.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t run = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Each span's duration minus the part of its interval that its children
/// cover (children clipped to the parent, overlaps counted once).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Share of `wall_ns` attributed to spans; the rest is the benchmark's own
/// glue between them. 0 when wall_ns is not positive.
[[nodiscard]] double coverage_ratio(std::int64_t attributed_ns,
                                    std::int64_t wall_ns);

/// Spans of one thread, kept in memory. open() nests the new span under
/// the innermost span still open; close() must close the innermost one.
class SpanLog {
 public:
  /// Returns the id of `name`, registering it on first use.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  std::size_t open(std::uint32_t name, std::uint32_t run);
  void close(std::size_t index);
  /// Appends a finished span with an explicit parent (-1 = root).
  void add(const Span& span) { spans_.push_back(span); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Drops every span (names stay registered). No span may be open.
  void clear();

  /// Writes every span as one line `name<TAB>run<TAB>parent<TAB>start_ns
  /// <TAB>end_ns`. Returns false if the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Per-name totals over a span log.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] std::vector<NameTotals> totals_by_name(const SpanLog& log);

}  // namespace perfbench
