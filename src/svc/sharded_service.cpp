#include "svc/sharded_service.hpp"

#include <thread>

#include "common/assert.hpp"

namespace dbs::svc {

std::string shard_state_dir(const std::string& base, std::size_t k) {
  return base + "/shard-" + std::to_string(k);
}

ShardedService::ShardedService(batch::ShardedSystem& system,
                               IngestQueue& ingest,
                               const ServiceConfig& config)
    : system_(system),
      ingest_(ingest),
      config_(config),
      pool_(system.shard_config().threads >= 1 ? system.shard_config().threads
                                               : 1) {
  const std::size_t count = system_.shard_count();
  queues_.reserve(count);
  loops_.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    queues_.push_back(std::make_unique<IngestQueue>());
    ServiceConfig shard_config = config;
    if (!config.state_dir.empty())
      shard_config.state_dir = shard_state_dir(config.state_dir, k);
    // The driver owns wall pacing; shard loops only ever run one tick.
    shard_config.wall_sleep = std::chrono::microseconds{0};
    loops_.push_back(std::make_unique<ServiceLoop>(
        system_.shard(k), *queues_.back(), shard_config));
  }
}

ShardedService::~ShardedService() = default;

bool ShardedService::open() {
  DBS_REQUIRE(!config_.state_dir.empty(),
              "open() is only meaningful with a state_dir");
  // Per-shard parallel recovery: every shard restores its own snapshot and
  // replays its own WAL tail; the shards touch disjoint state.
  const std::vector<char> had =
      pool_.parallel_map<char>(loops_.size(), [&](std::size_t k) {
        return static_cast<char>(loops_[k]->open());
      });
  std::vector<std::uint64_t> cores(loops_.size(), 0);
  std::vector<std::uint64_t> jobs(loops_.size(), 0);
  for (std::size_t k = 0; k < loops_.size(); ++k) {
    cores[k] = loops_[k]->wal_submit_cores();
    jobs[k] = loops_[k]->wal_submit_total();
    if (had[k] != 0) recovered_ = true;
  }
  system_.router().restore(std::move(cores), std::move(jobs));
  return recovered_;
}

void ShardedService::route_pending() {
  route_buf_.clear();
  ingest_.drain(route_buf_);
  for (const IngestRecord& r : route_buf_) {
    DBS_REQUIRE(r.kind == IngestKind::Submit,
                "sharded ingest routes submits only; use "
                "ShardedService::cancel(shard, ...) for qdel");
    const std::size_t k = system_.router().route(r.spec);
    queues_[k]->submit(r.requested, r.spec, r.behavior);
  }
  if (!closed_shards_ && ingest_.closed() && ingest_.depth() == 0) {
    for (auto& q : queues_) q->close();
    closed_shards_ = true;
  }
}

void ShardedService::tick() {
  route_pending();
  pool_.parallel_for(loops_.size(),
                     [&](std::size_t k) { loops_[k]->tick(); });
  ++ticks_;
}

std::uint64_t ShardedService::cancel(std::size_t k, Time requested,
                                     JobId job) {
  return queues_.at(k)->cancel(requested, job);
}

void ShardedService::stop() { stop_.store(true, std::memory_order_release); }

bool ShardedService::drained() const {
  if (!ingest_.closed() || ingest_.depth() != 0) return false;
  for (const auto& loop : loops_)
    if (!loop->drained()) return false;
  return true;
}

std::uint64_t ShardedService::run() {
  const std::uint64_t start = ticks_;
  while (!stop_.load(std::memory_order_acquire)) {
    tick();
    if (drained()) break;
    if (config_.max_ticks != 0 && ticks_ - start >= config_.max_ticks) break;
    if (config_.wall_sleep.count() > 0 && !ingest_.closed())
      std::this_thread::sleep_for(config_.wall_sleep);
  }
  // Final snapshots in shard order (serial: cheap, and keeps any global-
  // registry fallback counters deterministic).
  for (auto& loop : loops_) loop->finalize();
  return ticks_ - start;
}

std::uint64_t ShardedService::wal_ingest_total() const {
  std::uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->wal_ingest_total();
  return total;
}

std::uint64_t ShardedService::wal_decision_total() const {
  std::uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->wal_decision_total();
  return total;
}

std::uint64_t ShardedService::snapshots_written() const {
  std::uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->snapshots_written();
  return total;
}

}  // namespace dbs::svc
