#include "rms/job.hpp"

#include <new>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "rms/job_queue.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DBS_JOB_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DBS_JOB_POOL_DISABLED 1
#endif
#endif

namespace dbs::rms {

namespace {

/// Per-thread freelist of Job-sized blocks. Capped so an allocation burst
/// (e.g. a full queue draining at simulation end) does not pin memory
/// forever; blocks are genuinely freed at thread exit.
struct JobPool {
  std::vector<void*> blocks;
  ~JobPool() {
    for (void* p : blocks) ::operator delete(p);
  }
};

constexpr std::size_t kJobPoolCap = 4096;

JobPool& job_pool() {
  thread_local JobPool pool;
  return pool;
}

}  // namespace

void* Job::operator new(std::size_t size) {
#ifndef DBS_JOB_POOL_DISABLED
  if (size == sizeof(Job)) {
    auto& pool = job_pool();
    if (!pool.blocks.empty()) {
      void* p = pool.blocks.back();
      pool.blocks.pop_back();
      return p;
    }
  }
#endif
  return ::operator new(size);
}

void Job::operator delete(void* p, std::size_t size) noexcept {
#ifndef DBS_JOB_POOL_DISABLED
  if (p != nullptr && size == sizeof(Job)) {
    auto& pool = job_pool();
    if (pool.blocks.size() < kJobPoolCap) {
      pool.blocks.push_back(p);
      return;
    }
  }
#endif
  ::operator delete(p);
}

// Unsized fallback: pooled blocks all come from ::operator new, so
// releasing one here (without recycling) is still correct.
void Job::operator delete(void* p) noexcept { ::operator delete(p); }

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::DynQueued: return "dynqueued";
    case JobState::Completed: return "completed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

Job::Job(JobId id, JobSpec spec, std::unique_ptr<Application> app, Time submit)
    : id_(id), spec_(std::move(spec)), app_(std::move(app)), submit_(submit) {
  DBS_REQUIRE(id_.valid(), "job needs a valid id");
  DBS_REQUIRE(app_ != nullptr, "job needs an application model");
  DBS_REQUIRE(spec_.cores > 0, "job must request at least one core");
  DBS_REQUIRE(spec_.walltime > Duration::zero(), "walltime must be positive");
  DBS_REQUIRE(!spec_.cred.user.empty(), "job needs a user");
}

std::unique_ptr<Job> Job::restore(JobId id, JobSpec spec,
                                  std::unique_ptr<Application> app, Time submit,
                                  const Restore& r) {
  auto job = std::make_unique<Job>(id, std::move(spec), std::move(app), submit);
  job->state_ = r.state;
  job->start_ = r.start;
  job->end_ = r.end;
  job->placement_ = r.placement;
  job->backfilled_ = r.backfilled;
  job->dyn_requests_made_ = r.dyn_requests_made;
  job->dyn_grants_ = r.dyn_grants;
  job->dyn_rejects_ = r.dyn_rejects;
  return job;
}

void Job::set_state(JobState next) {
  const JobState prev = state_;
  state_ = next;
  if (owner_ != nullptr) owner_->refile(*this, prev);
}

Time Job::start_time() const {
  DBS_REQUIRE(start_.has_value(), "job has not started");
  return *start_;
}

Time Job::end_time() const {
  DBS_REQUIRE(end_.has_value(), "job has not ended");
  return *end_;
}

Time Job::walltime_end() const {
  return start_time() + spec_.walltime;
}

void Job::mark_started(Time at, cluster::Placement placement, bool backfilled) {
  DBS_REQUIRE(state_ == JobState::Queued, "start requires Queued state");
  DBS_REQUIRE(placement.total_cores() == spec_.cores,
              "initial placement must match requested cores");
  set_state(JobState::Running);
  start_ = at;
  placement_ = std::move(placement);
  backfilled_ = backfilled;
}

void Job::mark_dynqueued() {
  DBS_REQUIRE(state_ == JobState::Running, "dynqueued requires Running state");
  set_state(JobState::DynQueued);
}

void Job::mark_running_again() {
  DBS_REQUIRE(state_ == JobState::DynQueued,
              "resume requires DynQueued state");
  set_state(JobState::Running);
}

void Job::expand(const cluster::Placement& extra) {
  DBS_REQUIRE(is_running(), "expand requires a running job");
  placement_.merge(extra);
}

void Job::shrink(const cluster::Placement& freed) {
  DBS_REQUIRE(is_running(), "shrink requires a running job");
  for (const auto& share : freed.shares) {
    bool found = false;
    for (auto& mine : placement_.shares) {
      if (mine.node == share.node) {
        DBS_REQUIRE(mine.cores >= share.cores,
                    "shrinking cores the job does not hold");
        mine.cores -= share.cores;
        found = true;
        break;
      }
    }
    DBS_REQUIRE(found, "shrinking a node the job does not use");
  }
  std::erase_if(placement_.shares,
                [](const cluster::NodeShare& s) { return s.cores == 0; });
  DBS_REQUIRE(allocated_cores() > 0, "job cannot shrink to zero cores");
}

void Job::mark_completed(Time at) {
  DBS_REQUIRE(is_running(), "completion requires a running job");
  set_state(JobState::Completed);
  end_ = at;
}

void Job::mark_cancelled(Time at) {
  DBS_REQUIRE(!finished(), "job already finished");
  set_state(JobState::Cancelled);
  end_ = at;
}

void Job::mark_requeued() {
  DBS_REQUIRE(is_running(), "requeue requires a running job");
  set_state(JobState::Queued);
  start_.reset();
  placement_ = {};
  backfilled_ = false;
}

}  // namespace dbs::rms
