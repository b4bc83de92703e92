// Line-oriented parser for the Standard Workload Format (SWF) of the
// Parallel Workloads Archive: `;` header directives followed by
// whitespace-separated 18-field job records, with -1 marking a missing
// value. The parser is streaming — it holds one line at a time — so a
// multi-gigabyte trace never needs to fit in memory.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <utility>
#include <vector>

namespace dbs::wl::swf {

/// One SWF job record; every field is int64 with -1 = not available.
/// Field numbers follow the SWF definition (1-based).
struct SwfRecord {
  std::int64_t job_number = -1;     ///< 1
  std::int64_t submit_s = -1;       ///< 2: seconds since trace start
  std::int64_t wait_s = -1;         ///< 3
  std::int64_t run_s = -1;          ///< 4
  std::int64_t used_procs = -1;     ///< 5: allocated processors
  std::int64_t avg_cpu_s = -1;      ///< 6
  std::int64_t used_mem_kb = -1;    ///< 7
  std::int64_t req_procs = -1;      ///< 8
  std::int64_t req_time_s = -1;     ///< 9
  std::int64_t req_mem_kb = -1;     ///< 10
  std::int64_t status = -1;         ///< 11
  std::int64_t user = -1;           ///< 12
  std::int64_t group = -1;          ///< 13
  std::int64_t executable = -1;     ///< 14
  std::int64_t queue = -1;          ///< 15
  std::int64_t partition = -1;      ///< 16
  std::int64_t preceding_job = -1;  ///< 17
  std::int64_t think_time_s = -1;   ///< 18
  /// A field held a number int64 cannot represent (infinite, NaN or
  /// beyond +-2^63); that field's value is unspecified. The record still
  /// parses, and SwfSource counts it unusable.
  bool out_of_range = false;

  [[nodiscard]] bool operator==(const SwfRecord&) const = default;
};

/// What to do with a line that is not a directive, not blank and not a
/// well-formed 18-field record.
enum class MalformedPolicy {
  Skip,    ///< count it and move on (archive traces have stray lines)
  Strict,  ///< throw precondition_error with the line number
};

/// Header directives of interest, plus every raw directive in file order.
struct SwfHeader {
  std::int64_t max_jobs = -1;   ///< MaxJobs
  std::int64_t max_procs = -1;  ///< MaxProcs
  std::uint64_t max_procs_line = 0;  ///< line of MaxProcs (0 = none)
  std::int64_t max_nodes = -1;  ///< MaxNodes
  std::vector<std::pair<std::string, std::string>> directives;
};

class SwfParser {
 public:
  SwfParser(std::istream& in, MalformedPolicy policy = MalformedPolicy::Skip)
      : in_(&in), policy_(policy) {}

  /// Parses forward to the next job record; false at end of input.
  /// Directives encountered on the way are folded into header().
  bool next(SwfRecord& out);

  /// Consumes directive/blank lines up to (not including) the first job
  /// record, so callers can size the cluster from MaxProcs before
  /// streaming. Idempotent; next() also updates the header lazily.
  const SwfHeader& read_header();

  [[nodiscard]] const SwfHeader& header() const { return header_; }
  /// Well-formed records returned so far.
  [[nodiscard]] std::uint64_t records() const { return records_; }
  /// Malformed lines skipped (always 0 under Strict).
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  /// Physical lines consumed, including directives and blanks.
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  /// Reads the next line (CRLF-tolerant); false at EOF.
  bool read_line();
  void parse_directive();
  /// Parses line_ in place as 18 blank- or tab-separated fields; false if
  /// malformed.
  bool parse_record(SwfRecord& out);

  std::istream* in_;
  MalformedPolicy policy_;
  SwfHeader header_;
  std::string line_;
  bool line_pending_ = false;  ///< read_header stashed a record line
  std::uint64_t records_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace dbs::wl::swf
