#include "rms/job_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dbs::rms {

Job& JobQueue::add(std::unique_ptr<Job> job) {
  DBS_REQUIRE(job != nullptr, "null job");
  const JobId id = job->id();
  DBS_REQUIRE(!jobs_.contains(id), "duplicate job id");
  DBS_REQUIRE(order_.empty() || order_.back().first < id,
              "job ids must be added in increasing order");
  Job& ref = *job;
  jobs_.emplace(id, std::move(job));
  order_.emplace_back(id, &ref);
  // The newest id sorts last in whichever index its state selects.
  if (auto* index = index_for(ref.state())) index->push_back(&ref);
  ref.owner_ = this;
  return ref;
}

std::vector<const Job*>* JobQueue::index_for(JobState s) {
  switch (s) {
    case JobState::Queued: return &queued_;
    case JobState::Running:
    case JobState::DynQueued: return &running_;
    case JobState::Completed:
    case JobState::Cancelled: return nullptr;
  }
  return nullptr;
}

void JobQueue::refile(const Job& job, JobState from) {
  auto* src = index_for(from);
  auto* dst = index_for(job.state());
  if (src == dst) return;
  const auto by_id = [](const Job* a, const Job* b) {
    return a->id() < b->id();
  };
  if (src != nullptr) {
    const auto pos = std::lower_bound(src->begin(), src->end(), &job, by_id);
    DBS_ASSERT(pos != src->end() && *pos == &job, "state index out of sync");
    src->erase(pos);
  }
  if (dst != nullptr)
    dst->insert(std::upper_bound(dst->begin(), dst->end(), &job, by_id), &job);
}

void JobQueue::retire(JobId id) {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  DBS_REQUIRE(it->second->finished(), "only finished jobs can be retired");
  const auto pos = std::lower_bound(
      order_.begin(), order_.end(), id,
      [](const auto& entry, JobId key) { return entry.first < key; });
  DBS_ASSERT(pos != order_.end() && pos->first == id,
             "order index out of sync");
  pos->second = nullptr;
  ++order_tombstones_;
  ++retired_total_;
  jobs_.erase(it);
  maybe_compact_order();
}

void JobQueue::maybe_compact_order() {
  // Amortized: each compaction is O(order_) and removes more than half of
  // it, so the cost per retirement stays O(1). The floor keeps small
  // queues from rebuilding constantly.
  if (order_tombstones_ < 1024) return;
  if (order_tombstones_ * 2 <= order_.size()) return;
  std::erase_if(order_, [](const auto& e) { return e.second == nullptr; });
  order_tombstones_ = 0;
  first_live_ = 0;
}

std::uint64_t JobQueue::min_live_id(std::uint64_t fallback) const {
  while (first_live_ < order_.size() &&
         order_[first_live_].second == nullptr)
    ++first_live_;
  if (first_live_ >= order_.size()) return fallback;
  return order_[first_live_].first.value();
}

Job& JobQueue::at(JobId id) {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  return *it->second;
}

const Job& JobQueue::at(JobId id) const {
  auto it = jobs_.find(id);
  DBS_REQUIRE(it != jobs_.end(), "unknown job id");
  return *it->second;
}

std::vector<const Job*> JobQueue::all() const {
  std::vector<const Job*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, j] : order_)
    if (j != nullptr) out.push_back(j);
  return out;
}

void JobQueue::push_dyn_request(DynRequest req) {
  DBS_REQUIRE(dyn_request_of(req.job) == nullptr,
              "job already has a pending dynamic request");
  dyn_fifo_.push_back(req);
}

bool JobQueue::remove_dyn_request(RequestId id) {
  auto it = std::find_if(dyn_fifo_.begin(), dyn_fifo_.end(),
                         [&](const DynRequest& r) { return r.id == id; });
  if (it == dyn_fifo_.end()) return false;
  dyn_fifo_.erase(it);
  return true;
}

const DynRequest* JobQueue::dyn_request_of(JobId job) const {
  for (const auto& r : dyn_fifo_)
    if (r.job == job) return &r;
  return nullptr;
}

}  // namespace dbs::rms
