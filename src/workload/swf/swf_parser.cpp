#include "workload/swf/swf_parser.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <string_view>

#include "common/assert.hpp"
#include "common/string_util.hpp"

namespace dbs::wl::swf {

namespace {

/// SWF fields are integers in practice, but the definition permits
/// fractional values (average CPU time, fractional seconds); accept both
/// and round to the integer model the simulator uses.
bool parse_field(std::string_view token, std::int64_t& out,
                 bool& out_of_range) {
  if (const auto i = parse_int(token)) {
    out = *i;
    return true;
  }
  // parse_int rejects signs; -1 sentinels and fractional values both land
  // here.
  if (const auto d = parse_double(token)) {
    // llround's result is unspecified for NaN, infinities and values
    // beyond int64.
    if (!(*d >= -0x1p63 && *d < 0x1p63)) out_of_range = true;
    out = static_cast<std::int64_t>(std::llround(*d));
    return true;
  }
  return false;
}

/// Every integer of at most this magnitude survives strtod + llround
/// unchanged, so a negative one may skip that round trip.
constexpr std::int64_t kExactInDouble = std::int64_t{1} << 53;

bool is_blank(char c) { return c == ' ' || c == '\t'; }

}  // namespace

bool SwfParser::read_line() {
  if (line_pending_) {
    line_pending_ = false;
    return true;
  }
  if (!std::getline(*in_, line_)) return false;
  ++lines_;
  // CRLF tolerance: archive files circulate with DOS line endings.
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  return true;
}

void SwfParser::parse_directive() {
  // "; Key: Value" — keep every directive verbatim, decode the few the
  // replay engine acts on.
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
  if (iequals(key, "MaxProcs")) {
    header_.max_procs = *numeric;
    header_.max_procs_line = lines_;
  }
  if (iequals(key, "MaxNodes")) header_.max_nodes = *numeric;
}

bool SwfParser::parse_record(SwfRecord& out) {
  std::array<std::int64_t, 18> v{};
  bool out_of_range = false;
  std::size_t n = 0;
  const char* p = line_.data();
  const char* const end = p + line_.size();
  for (;;) {
    while (p != end && is_blank(*p)) ++p;
    if (p == end) break;
    if (n == v.size()) return false;  // more than 18 fields
    // The common token, a plain integer such as "3600" or the "-1"
    // sentinel, is read by from_chars alone, which also finds its end.
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(p, end, value);
    if (ec == std::errc{} && (ptr == end || is_blank(*ptr)) &&
        value >= -kExactInDouble) {
      v[n++] = value;
      p = ptr;
      continue;
    }
    // Anything from_chars does not consume whole (fractions, "+5", "1e3",
    // a stray '\r', int64 overflow) takes parse_field, so every token
    // reads as it did through parse_field alone.
    const char* token_end = ptr;
    while (token_end != end && !is_blank(*token_end)) ++token_end;
    if (!parse_field(std::string_view(p, static_cast<std::size_t>(
                                             token_end - p)),
                     v[n++], out_of_range))
      return false;
    p = token_end;
  }
  if (n != v.size()) return false;
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

const SwfHeader& SwfParser::read_header() {
  while (!line_pending_ && read_line()) {
    const std::string_view t = trim(line_);
    if (t.empty()) continue;
    if (t.front() == ';') {
      parse_directive();
      continue;
    }
    // First record line: stash it for the next next() call.
    line_pending_ = true;
  }
  return header_;
}

bool SwfParser::next(SwfRecord& out) {
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

}  // namespace dbs::wl::swf
