#include "workload/swf/swf_source.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace dbs::wl::swf {

namespace {

/// Largest time field, in seconds, whose Duration stays below
/// Duration::infinite(), so a submit time plus a walltime stays below
/// Time::far_future().
constexpr std::int64_t kMaxSeconds =
    Duration::infinite().as_micros() / 1'000'000 - 1;
constexpr std::int64_t kMaxCores = std::numeric_limits<CoreCount>::max();

/// Whether every field the replay converts fits the type it lands in.
bool in_range(const SwfRecord& r) {
  return !r.out_of_range && r.submit_s <= kMaxSeconds &&
         r.run_s <= kMaxSeconds && r.req_time_s <= kMaxSeconds &&
         r.used_procs <= kMaxCores && r.req_procs <= kMaxCores;
}

}  // namespace

std::string_view SwfSource::IdNames::operator()(std::int64_t id) {
  if (id < 0) id = -1;
  const auto [it, inserted] = names_.try_emplace(id);
  if (inserted) {
    const std::string name =
        id < 0 ? std::string(missing_) : prefix_ + std::to_string(id);
    it->second = interner_.view(interner_.intern(name));
  }
  return it->second;
}

SwfSource::SwfSource(std::istream& in, SwfSourceConfig config)
    : parser_(in, config.policy), config_(config) {
  DBS_REQUIRE(config_.overlay_dynamic_fraction >= 0.0 &&
                  config_.overlay_dynamic_fraction <= 1.0,
              "overlay fraction must be in [0, 1]");
}

std::size_t SwfSource::size_cluster(std::size_t nodes,
                                    CoreCount cores_per_node,
                                    const std::string& path) {
  DBS_REQUIRE(cores_per_node >= 1, "cores per node must be >= 1");
  const auto per_node = static_cast<std::size_t>(cores_per_node);
  const SwfHeader& h = header();
  if (nodes == 0 && h.max_procs > kMaxCores)
    throw precondition_error(path + ":" + std::to_string(h.max_procs_line) +
                             ": MaxProcs " + std::to_string(h.max_procs) +
                             " does not fit a core count (at most " +
                             std::to_string(kMaxCores) + ")");
  if (nodes == 0)
    nodes = (static_cast<std::size_t>(h.max_procs > 0 ? h.max_procs : 128) +
             per_node - 1) / per_node;
  set_max_cores(static_cast<CoreCount>(
      std::min(nodes, static_cast<std::size_t>(kMaxCores) / per_node) *
      per_node));
  return nodes;
}

bool SwfSource::overlay_marks(std::uint64_t seed, double fraction,
                              std::int64_t job_number) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  // Two splitmix64 steps over (seed, job number): a pure per-job hash, so
  // the mark does not depend on window size, trace position or how many
  // records were skipped before this one (same construction as
  // replication_seed).
  std::uint64_t state = seed;
  (void)splitmix64_next(state);
  state ^= 0xD1B54A32D192ED03ULL *
           (static_cast<std::uint64_t>(job_number) + 1);
  const std::uint64_t z = splitmix64_next(state);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < fraction;
}

bool SwfSource::next(SubmitSpec& out) {
  SwfRecord r;
  while (parser_.next(r)) {
    // A record is replayable if it has a submission time, a positive size
    // and a known runtime. Allocated size wins over requested size (it is
    // what actually ran); zero-length jobs are floored to one second, the
    // simulator's resolution for a job that ran at all.
    const std::int64_t procs = r.used_procs > 0 ? r.used_procs : r.req_procs;
    if (r.submit_s < 0 || procs <= 0 || r.run_s < 0 || !in_range(r)) {
      ++unusable_;
      continue;
    }
    std::int64_t submit_s = r.submit_s;
    if (submit_s < last_submit_s_) {
      submit_s = last_submit_s_;
      ++clamped_times_;
    }
    last_submit_s_ = submit_s;

    auto cores = static_cast<CoreCount>(procs);
    if (config_.max_cores > 0 && cores > config_.max_cores) {
      cores = config_.max_cores;
      ++clamped_cores_;
    }
    const Duration runtime = Duration::seconds(std::max<std::int64_t>(
        r.run_s, 1));
    // Requested walltime, floored to the actual runtime: traces contain
    // jobs that overran their request, and the simulator's applications
    // run to completion.
    const Duration walltime =
        std::max(r.req_time_s > 0 ? Duration::seconds(r.req_time_s) : runtime,
                 runtime);

    const std::int64_t number =
        r.job_number >= 0 ? r.job_number
                          : -static_cast<std::int64_t>(++anonymous_);

    out.at = Time::epoch() + Duration::seconds(submit_s);
    // Every JobSpec field is assigned in place, so a reused SubmitSpec
    // keeps its string buffers and costs no allocation.
    rms::JobSpec& spec = out.spec;
    char name[24] = {'j'};
    spec.name.assign(name, std::to_chars(name + 1, std::end(name), number).ptr);
    spec.cred.user = users_(r.user);
    spec.cred.group = groups_(r.group);
    spec.cred.account.clear();
    spec.cred.job_class = queues_(r.queue);
    spec.cred.qos.clear();
    spec.cores = cores;
    spec.ppn = 0;
    spec.walltime = walltime;
    spec.exclusive_priority = false;
    spec.preemptible = false;
    spec.malleable_min = 0;
    spec.type_tag.clear();

    out.behavior = Behavior{};
    out.behavior.static_runtime = runtime;
    if (overlay_marks(config_.overlay_seed, config_.overlay_dynamic_fraction,
                      number)) {
      out.behavior.evolving = true;
      out.behavior.first_ask_frac = config_.first_ask_frac;
      out.behavior.retry_frac = config_.retry_frac;
      out.behavior.ask_cores = config_.ask_cores;
      ++overlay_marked_;
    }
    ++yielded_;
    return true;
  }
  return false;
}

}  // namespace dbs::wl::swf
