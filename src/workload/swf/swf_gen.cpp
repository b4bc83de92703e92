#include "workload/swf/swf_gen.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace dbs::wl::swf {

std::string swf_gen_header(const SwfGenParams& p) {
  std::string h;
  h += "; Version: 2.2\n";
  h += "; Computer: dbs synthetic cluster\n";
  h += "; Acknowledge: generated by dbs swf_gen (seed=" +
       std::to_string(p.seed) + ")\n";
  h += "; MaxJobs: " + std::to_string(p.jobs) + "\n";
  h += "; MaxProcs: " + std::to_string(p.max_procs) + "\n";
  h += "; Note: deterministic integer splitmix64 stream; tools/gen_swf.py "
       "reproduces these bytes\n";
  return h;
}

bool SwfGen::append_next(std::string& out) {
  if (produced_ >= params_.jobs) return false;
  DBS_REQUIRE(params_.users > 0, "need at least one user");
  DBS_REQUIRE(params_.run_spread_s > 0, "runtime spread must be positive");
  DBS_REQUIRE(params_.mean_interarrival_s > 0,
              "mean interarrival must be positive");
  if (!seeded_) {
    state_ = params_.seed;
    seeded_ = true;
  }
  // Four draws per job, consumed in a fixed order (gen_swf.py mirrors
  // this exactly — keep them in sync). Modulo bias is irrelevant here:
  // the trace only needs to be deterministic and plausibly shaped.
  const std::uint64_t r1 = splitmix64_next(state_);
  const std::uint64_t r2 = splitmix64_next(state_);
  const std::uint64_t r3 = splitmix64_next(state_);
  const std::uint64_t r4 = splitmix64_next(state_);

  ++produced_;
  const std::uint64_t job = produced_;
  submit_s_ += r1 % (2 * params_.mean_interarrival_s);
  // Power-of-two sizes 1..32 (mean 10.5): pack-friendly and wide enough
  // to exercise multi-node placement.
  std::uint64_t cores = std::uint64_t{1} << (r2 % 6);
  if (cores > params_.max_procs) cores = params_.max_procs;
  const std::uint64_t run = params_.min_run_s + r3 % params_.run_spread_s;
  const std::uint64_t user = r4 % params_.users;
  const std::uint64_t group = user % 16;
  const std::uint64_t queue = user % 4;
  // Requested time: runtime plus a deterministic pad, like users who
  // round their requests up.
  const std::uint64_t req_time = run + run % 600 + 60;

  // 18 SWF fields; unmodeled ones carry the -1 sentinel.
  out += std::to_string(job);
  out += ' ';
  out += std::to_string(submit_s_);
  out += " -1 ";
  out += std::to_string(run);
  out += ' ';
  out += std::to_string(cores);
  out += " -1 -1 ";
  out += std::to_string(cores);
  out += ' ';
  out += std::to_string(req_time);
  out += " -1 1 ";
  out += std::to_string(user);
  out += ' ';
  out += std::to_string(group);
  out += " -1 ";
  out += std::to_string(queue);
  out += " -1 -1 -1\n";
  return true;
}

void generate_swf(std::ostream& out, const SwfGenParams& params) {
  out << swf_gen_header(params);
  SwfGen gen(params);
  std::string chunk;
  while (gen.append_next(chunk)) {
    if (chunk.size() >= 1 << 16) {
      out << chunk;
      chunk.clear();
    }
  }
  out << chunk;
}

SwfGenStream::Buf::Buf(const SwfGenParams& params)
    : gen_(params), params_(params) {}

std::streambuf::int_type SwfGenStream::Buf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  chunk_.clear();
  if (!header_done_) {
    chunk_ = swf_gen_header(params_);
    header_done_ = true;
  }
  while (chunk_.size() < 1 << 16 && gen_.append_next(chunk_)) {
  }
  if (chunk_.empty()) return traits_type::eof();
  setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
  return traits_type::to_int_type(*gptr());
}

SwfGenStream::SwfGenStream(const SwfGenParams& params)
    : std::istream(nullptr), buf_(params) {
  rdbuf(&buf_);
}

}  // namespace dbs::wl::swf
