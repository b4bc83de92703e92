// The SWF parser as it was before records were parsed in place, kept as
// the reference for differential testing: every line is split into a
// vector of strings, and each field goes through parse_int, then strtod
// and llround. Only the class name, the header-only packaging, shorter
// comments and the SwfRecord::out_of_range flag (set where llround's
// result is unspecified) changed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/string_util.hpp"
#include "workload/swf/swf_parser.hpp"

namespace dbs::wl::swf::testing {

class ReferenceSwfParser {
 public:
  ReferenceSwfParser(std::istream& in,
                     MalformedPolicy policy = MalformedPolicy::Skip)
      : in_(&in), policy_(policy) {}

  /// Parses forward to the next job record; false at end of input.
  bool next(SwfRecord& out);
  /// Consumes directive/blank lines up to the first job record.
  const SwfHeader& read_header();

  [[nodiscard]] const SwfHeader& header() const { return header_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  [[nodiscard]] std::uint64_t lines() const { return lines_; }

 private:
  bool read_line();
  void parse_directive();
  bool parse_record(SwfRecord& out);

  std::istream* in_;
  MalformedPolicy policy_;
  SwfHeader header_;
  std::string line_;
  bool line_pending_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t lines_ = 0;
};

namespace reference_detail {

inline bool parse_field(std::string_view token, std::int64_t& out,
                        bool& out_of_range) {
  if (const auto i = parse_int(token)) {
    out = *i;
    return true;
  }
  if (const auto d = parse_double(token)) {
    if (!(*d >= -0x1p63 && *d < 0x1p63)) out_of_range = true;
    out = static_cast<std::int64_t>(std::llround(*d));
    return true;
  }
  return false;
}

}  // namespace reference_detail

inline bool ReferenceSwfParser::read_line() {
  if (line_pending_) {
    line_pending_ = false;
    return true;
  }
  if (!std::getline(*in_, line_)) return false;
  ++lines_;
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  return true;
}

inline void ReferenceSwfParser::parse_directive() {
  std::string_view body = trim(std::string_view(line_).substr(1));
  std::string key;
  std::string value;
  if (const auto kv = split_once(body, ':')) {
    key = std::string(trim(kv->first));
    value = std::string(trim(kv->second));
  } else {
    key = std::string(body);
  }
  if (key.empty()) return;
  header_.directives.emplace_back(key, value);
  const auto numeric = parse_int(value);
  if (!numeric.has_value()) return;
  if (iequals(key, "MaxJobs")) header_.max_jobs = *numeric;
  if (iequals(key, "MaxProcs")) header_.max_procs = *numeric;
  if (iequals(key, "MaxNodes")) header_.max_nodes = *numeric;
}

inline bool ReferenceSwfParser::parse_record(SwfRecord& out) {
  const std::vector<std::string> fields = split(line_);
  if (fields.size() != 18) return false;
  std::array<std::int64_t, 18> v{};
  bool out_of_range = false;
  for (std::size_t i = 0; i < 18; ++i)
    if (!reference_detail::parse_field(fields[i], v[i], out_of_range))
      return false;
  out.job_number = v[0];
  out.submit_s = v[1];
  out.wait_s = v[2];
  out.run_s = v[3];
  out.used_procs = v[4];
  out.avg_cpu_s = v[5];
  out.used_mem_kb = v[6];
  out.req_procs = v[7];
  out.req_time_s = v[8];
  out.req_mem_kb = v[9];
  out.status = v[10];
  out.user = v[11];
  out.group = v[12];
  out.executable = v[13];
  out.queue = v[14];
  out.partition = v[15];
  out.preceding_job = v[16];
  out.think_time_s = v[17];
  out.out_of_range = out_of_range;
  return true;
}

inline const SwfHeader& ReferenceSwfParser::read_header() {
  while (!line_pending_ && read_line()) {
    const std::string_view t = trim(line_);
    if (t.empty()) continue;
    if (t.front() == ';') {
      parse_directive();
      continue;
    }
    line_pending_ = true;
  }
  return header_;
}

inline bool ReferenceSwfParser::next(SwfRecord& out) {
  while (read_line()) {
    const std::string_view t = trim(line_);
    if (t.empty()) continue;
    if (t.front() == ';') {
      parse_directive();
      continue;
    }
    if (parse_record(out)) {
      ++records_;
      return true;
    }
    DBS_REQUIRE(policy_ != MalformedPolicy::Strict,
                "SWF line " + std::to_string(lines_) +
                    ": malformed record: " + line_);
    ++malformed_;
  }
  return false;
}

}  // namespace dbs::wl::swf::testing
