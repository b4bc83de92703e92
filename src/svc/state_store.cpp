#include "svc/state_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "obs/recorder/record.hpp"

namespace dbs::svc {
namespace {

using obs::rec::load_le;
using obs::rec::store_le;

// --- byte-buffer writer/reader --------------------------------------------
// Same conventions as the flight recorder (DESIGN.md §10): all integers
// little-endian, strings length-prefixed, doubles as their IEEE-754 bit
// pattern. The reader bounds-checks every access and throws, so a
// truncated or corrupt snapshot fails loud instead of restoring garbage.

class Writer {
 public:
  explicit Writer(std::vector<unsigned char>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void i32(std::int32_t v) { scalar(v); }
  void i64(std::int64_t v) { scalar(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(Time t) { i64(t.as_micros()); }
  void duration(Duration d) { i64(d.as_micros()); }
  void opt_time(const std::optional<Time>& t) {
    boolean(t.has_value());
    i64(t ? t->as_micros() : 0);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  template <class T>
  void scalar(T v) {
    unsigned char tmp[sizeof(T)];
    store_le<T>(tmp, v);
    out_.insert(out_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<unsigned char>& out_;
};

class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() { return load_le<std::uint32_t>(take(4)); }
  [[nodiscard]] std::uint64_t u64() { return load_le<std::uint64_t>(take(8)); }
  [[nodiscard]] std::int32_t i32() { return load_le<std::int32_t>(take(4)); }
  [[nodiscard]] std::int64_t i64() { return load_le<std::int64_t>(take(8)); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] Time time() { return Time::from_micros(i64()); }
  [[nodiscard]] Duration duration() { return Duration::micros(i64()); }
  [[nodiscard]] std::optional<Time> opt_time() {
    const bool has = boolean();
    const std::int64_t us = i64();
    if (!has) return std::nullopt;
    return Time::from_micros(us);
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    const unsigned char* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// Element count for a following array; bounded by the bytes left so a
  /// corrupt length cannot drive a multi-gigabyte reserve.
  [[nodiscard]] std::size_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    DBS_REQUIRE(static_cast<std::size_t>(n) * min_elem_bytes <= remaining(),
                "snapshot array length exceeds the remaining bytes");
    return n;
  }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  const unsigned char* take(std::size_t n) {
    DBS_REQUIRE(n <= remaining(), "snapshot truncated");
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- per-type codecs -------------------------------------------------------

void put_credentials(Writer& w, const Credentials& c) {
  w.str(c.user);
  w.str(c.group);
  w.str(c.account);
  w.str(c.job_class);
  w.str(c.qos);
}

Credentials get_credentials(Reader& r) {
  Credentials c;
  c.user = r.str();
  c.group = r.str();
  c.account = r.str();
  c.job_class = r.str();
  c.qos = r.str();
  return c;
}

void put_spec(Writer& w, const rms::JobSpec& s) {
  w.str(s.name);
  put_credentials(w, s.cred);
  w.i32(s.cores);
  w.i32(s.ppn);
  w.duration(s.walltime);
  w.boolean(s.exclusive_priority);
  w.boolean(s.preemptible);
  w.i32(s.malleable_min);
  w.str(s.type_tag);
}

rms::JobSpec get_spec(Reader& r) {
  rms::JobSpec s;
  s.name = r.str();
  s.cred = get_credentials(r);
  s.cores = r.i32();
  s.ppn = r.i32();
  s.walltime = r.duration();
  s.exclusive_priority = r.boolean();
  s.preemptible = r.boolean();
  s.malleable_min = r.i32();
  s.type_tag = r.str();
  return s;
}

void put_behavior(Writer& w, const wl::Behavior& b) {
  w.duration(b.static_runtime);
  w.boolean(b.evolving);
  w.f64(b.first_ask_frac);
  w.f64(b.retry_frac);
  w.i32(b.ask_cores);
  w.duration(b.negotiation_timeout);
  w.boolean(b.malleable);
}

wl::Behavior get_behavior(Reader& r) {
  wl::Behavior b;
  b.static_runtime = r.duration();
  b.evolving = r.boolean();
  b.first_ask_frac = r.f64();
  b.retry_frac = r.f64();
  b.ask_cores = r.i32();
  b.negotiation_timeout = r.duration();
  b.malleable = r.boolean();
  return b;
}

void put_placement(Writer& w, const cluster::Placement& p) {
  w.u32(static_cast<std::uint32_t>(p.shares.size()));
  for (const auto& share : p.shares) {
    w.u64(share.node.value());
    w.i32(share.cores);
  }
}

cluster::Placement get_placement(Reader& r) {
  cluster::Placement p;
  const std::size_t n = r.count(12);
  p.shares.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cluster::NodeShare share;
    share.node = NodeId(r.u64());
    share.cores = r.i32();
    p.shares.push_back(share);
  }
  return p;
}

void put_app(Writer& w, const rms::AppState& a) {
  w.u32(a.kind);
  w.u32(static_cast<std::uint32_t>(a.ints.size()));
  for (const auto v : a.ints) w.i64(v);
  w.u32(static_cast<std::uint32_t>(a.doubles.size()));
  for (const auto v : a.doubles) w.f64(v);
}

rms::AppState get_app(Reader& r) {
  rms::AppState a;
  a.kind = r.u32();
  const std::size_t ni = r.count(8);
  a.ints.reserve(ni);
  for (std::size_t i = 0; i < ni; ++i) a.ints.push_back(r.i64());
  const std::size_t nd = r.count(8);
  a.doubles.reserve(nd);
  for (std::size_t i = 0; i < nd; ++i) a.doubles.push_back(r.f64());
  return a;
}

void put_job_entry(Writer& w, const SystemState::JobEntry& e) {
  w.u64(e.id.value());
  put_spec(w, e.spec);
  w.time(e.submit);
  w.u8(static_cast<std::uint8_t>(e.restore.state));
  w.opt_time(e.restore.start);
  w.opt_time(e.restore.end);
  put_placement(w, e.restore.placement);
  w.boolean(e.restore.backfilled);
  w.i32(e.restore.dyn_requests_made);
  w.i32(e.restore.dyn_grants);
  w.i32(e.restore.dyn_rejects);
  put_app(w, e.app);
}

SystemState::JobEntry get_job_entry(Reader& r) {
  SystemState::JobEntry e;
  e.id = JobId(r.u64());
  e.spec = get_spec(r);
  e.submit = r.time();
  const std::uint8_t state = r.u8();
  DBS_REQUIRE(state <= static_cast<std::uint8_t>(rms::JobState::Cancelled),
              "snapshot job state out of range");
  e.restore.state = static_cast<rms::JobState>(state);
  e.restore.start = r.opt_time();
  e.restore.end = r.opt_time();
  e.restore.placement = get_placement(r);
  e.restore.backfilled = r.boolean();
  e.restore.dyn_requests_made = r.i32();
  e.restore.dyn_grants = r.i32();
  e.restore.dyn_rejects = r.i32();
  e.app = get_app(r);
  return e;
}

void put_dyn_request(Writer& w, const rms::DynRequest& d) {
  w.u64(d.id.value());
  w.u64(d.job.value());
  w.i32(d.extra_cores);
  w.time(d.submitted);
  w.i32(d.attempt);
  w.time(d.deadline);
}

rms::DynRequest get_dyn_request(Reader& r) {
  rms::DynRequest d;
  d.id = RequestId(r.u64());
  d.job = JobId(r.u64());
  d.extra_cores = r.i32();
  d.submitted = r.time();
  d.attempt = r.i32();
  d.deadline = r.time();
  return d;
}

void put_mom(Writer& w, const rms::MomManager::RuntimeState& m) {
  w.u64(m.job.value());
  w.i32(m.cores);
  w.time(m.finish_at);
  w.boolean(m.has_ask);
  w.time(m.ask.at);
  w.i32(m.ask.extra_cores);
  w.duration(m.ask.timeout);
  w.i32(m.ask_attempt);
  w.boolean(m.has_release);
  w.time(m.release.at);
  w.i32(m.release.cores);
}

rms::MomManager::RuntimeState get_mom(Reader& r) {
  rms::MomManager::RuntimeState m;
  m.job = JobId(r.u64());
  m.cores = r.i32();
  m.finish_at = r.time();
  m.has_ask = r.boolean();
  m.ask.at = r.time();
  m.ask.extra_cores = r.i32();
  m.ask.timeout = r.duration();
  m.ask_attempt = r.i32();
  m.has_release = r.boolean();
  m.release.at = r.time();
  m.release.cores = r.i32();
  return m;
}

void put_scheduler(Writer& w, const core::MauiScheduler::ServiceState& s) {
  w.u64(s.iterations);
  w.time(s.last_usage_update);
  w.boolean(s.poll_pending);
  w.time(s.poll_at);
  w.time(s.fairshare.window_start);
  w.u32(static_cast<std::uint32_t>(s.fairshare.windows.size()));
  for (const auto& [user, windows] : s.fairshare.windows) {
    w.str(user);
    w.u32(static_cast<std::uint32_t>(windows.size()));
    for (const double v : windows) w.f64(v);
  }
  w.time(s.dfs.interval_start);
  for (const auto& entity : s.dfs.entities) {
    w.u32(static_cast<std::uint32_t>(entity.size()));
    for (const auto& [name, delay] : entity) {
      w.str(name);
      w.duration(delay);
    }
  }
  w.u32(static_cast<std::uint32_t>(s.dfs.job_delays.size()));
  for (const auto& [job, delay] : s.dfs.job_delays) {
    w.u64(job.value());
    w.duration(delay);
  }
}

core::MauiScheduler::ServiceState get_scheduler(Reader& r) {
  core::MauiScheduler::ServiceState s;
  s.iterations = r.u64();
  s.last_usage_update = r.time();
  s.poll_pending = r.boolean();
  s.poll_at = r.time();
  s.fairshare.window_start = r.time();
  const std::size_t nu = r.count(8);
  s.fairshare.windows.reserve(nu);
  for (std::size_t i = 0; i < nu; ++i) {
    std::string user = r.str();
    const std::size_t nw = r.count(8);
    std::vector<double> windows;
    windows.reserve(nw);
    for (std::size_t j = 0; j < nw; ++j) windows.push_back(r.f64());
    s.fairshare.windows.emplace_back(std::move(user), std::move(windows));
  }
  s.dfs.interval_start = r.time();
  for (auto& entity : s.dfs.entities) {
    const std::size_t ne = r.count(12);
    entity.reserve(ne);
    for (std::size_t i = 0; i < ne; ++i) {
      std::string name = r.str();
      const Duration delay = r.duration();
      entity.emplace_back(std::move(name), delay);
    }
  }
  const std::size_t nj = r.count(16);
  s.dfs.job_delays.reserve(nj);
  for (std::size_t i = 0; i < nj; ++i) {
    const JobId job{r.u64()};
    s.dfs.job_delays.emplace_back(job, r.duration());
  }
  return s;
}

void put_job_record(Writer& w, const metrics::JobRecord& j) {
  w.u64(j.id.value());
  w.str(j.name);
  w.str(j.user);
  w.str(j.type_tag);
  w.i32(j.cores_requested);
  w.i32(j.cores_peak);
  w.time(j.submit);
  w.opt_time(j.start);
  w.opt_time(j.end);
  w.boolean(j.backfilled);
  w.boolean(j.evolving);
  w.i32(j.dyn_requests);
  w.i32(j.dyn_grants);
  w.i32(j.dyn_rejects);
  w.i32(j.requeues);
  w.i32(j.malleable_shrinks);
}

metrics::JobRecord get_job_record(Reader& r) {
  metrics::JobRecord j;
  j.id = JobId(r.u64());
  j.name = r.str();
  j.user = r.str();
  j.type_tag = r.str();
  j.cores_requested = r.i32();
  j.cores_peak = r.i32();
  j.submit = r.time();
  j.start = r.opt_time();
  j.end = r.opt_time();
  j.backfilled = r.boolean();
  j.evolving = r.boolean();
  j.dyn_requests = r.i32();
  j.dyn_grants = r.i32();
  j.dyn_rejects = r.i32();
  j.requeues = r.i32();
  j.malleable_shrinks = r.i32();
  return j;
}

void put_metrics(Writer& w, const metrics::Recorder::State& m) {
  w.u64(m.totals.submitted);
  w.u64(m.totals.completed);
  w.u64(m.totals.backfilled);
  w.u64(m.totals.evolving);
  w.u64(m.totals.satisfied_dyn);
  w.u64(m.totals.granted_dyn_requests);
  w.duration(m.totals.wait_sum);
  w.duration(m.totals.turnaround_sum);
  w.duration(m.totals.max_wait);
  w.f64(m.usage_integral);
  w.time(m.last_usage_t);
  w.i32(m.last_used);
  w.time(m.first_submit);
  w.time(m.last_finish);
  w.u32(static_cast<std::uint32_t>(m.live.size()));
  for (const auto& j : m.live) put_job_record(w, j);
}

metrics::Recorder::State get_metrics(Reader& r) {
  metrics::Recorder::State m;
  m.totals.submitted = r.u64();
  m.totals.completed = r.u64();
  m.totals.backfilled = r.u64();
  m.totals.evolving = r.u64();
  m.totals.satisfied_dyn = r.u64();
  m.totals.granted_dyn_requests = r.u64();
  m.totals.wait_sum = r.duration();
  m.totals.turnaround_sum = r.duration();
  m.totals.max_wait = r.duration();
  m.usage_integral = r.f64();
  m.last_usage_t = r.time();
  m.last_used = r.i32();
  m.first_submit = r.time();
  m.last_finish = r.time();
  const std::size_t n = r.count(32);
  m.live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) m.live.push_back(get_job_record(r));
  return m;
}

// --- file helpers ----------------------------------------------------------

void write_all(int fd, const unsigned char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      DBS_REQUIRE(false, "write failed: " + path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_checked(int fd, const std::string& path) {
  DBS_REQUIRE(::fsync(fd) == 0, "fsync failed: " + path);
}

/// fsyncs the directory containing `path` so a rename/create within it is
/// durable.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  const std::string d = dir.empty() ? std::string(".") : dir.string();
  const int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY);
  DBS_REQUIRE(fd >= 0, "cannot open directory for fsync: " + d);
  fsync_checked(fd, d);
  ::close(fd);
}

[[nodiscard]] std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DBS_REQUIRE(in.good(), "cannot open file: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<unsigned char> data(static_cast<std::size_t>(size));
  if (size > 0)
    in.read(reinterpret_cast<char*>(data.data()), size);
  DBS_REQUIRE(in.good(), "read failed: " + path);
  return data;
}

}  // namespace

// --- system capture/restore ------------------------------------------------

SystemState capture_state(batch::BatchSystem& system) {
  SystemState s;
  s.now = system.simulator().now();

  rms::Server& server = system.server();
  s.next_job = server.next_job_id_raw();
  s.next_request = server.next_request_id_raw();
  for (const rms::Job* job : server.jobs().all()) {
    SystemState::JobEntry e;
    e.id = job->id();
    e.spec = job->spec();
    e.submit = job->submit_time();
    e.restore.state = job->state();
    if (job->started()) e.restore.start = job->start_time();
    if (job->finished()) e.restore.end = job->end_time();
    e.restore.placement = job->placement();
    e.restore.backfilled = job->was_backfilled();
    e.restore.dyn_requests_made = job->dyn_requests_made();
    e.restore.dyn_grants = job->dyn_grants();
    e.restore.dyn_rejects = job->dyn_rejects();
    DBS_REQUIRE(job->app().save_state(e.app),
                "application model does not support snapshotting");
    s.jobs.push_back(std::move(e));
  }
  const auto& fifo = server.jobs().dyn_requests();
  s.dyn_fifo.assign(fifo.begin(), fifo.end());
  s.hints = server.save_availability_hints();

  for (const auto& node : system.cluster().nodes())
    s.node_states.push_back(static_cast<std::uint8_t>(node.state()));

  s.moms = system.moms().save_state();
  s.scheduler = system.scheduler().save_service_state();
  s.metrics = system.recorder().save_state();
  return s;
}

void restore_state(batch::BatchSystem& system, const SystemState& s) {
  sim::Simulator& sim = system.simulator();
  rms::Server& server = system.server();
  DBS_REQUIRE(server.jobs().size() == 0 && server.next_job_id_raw() == 0,
              "restore needs a freshly constructed system");
  sim.restore_clock(s.now);
  server.restore_counters(s.next_job, s.next_request);

  // Jobs first (in id order, as encoded): everything else references them.
  for (const auto& e : s.jobs) {
    auto app = apps::restore_application(e.app);
    server.restore_job(
        rms::Job::restore(e.id, e.spec, std::move(app), e.submit, e.restore));
  }
  for (const auto& d : s.dyn_fifo) server.restore_dyn_request(d);
  for (const auto& [job, at] : s.hints)
    server.restore_availability_hint(job, at);

  // Cluster: replay the running jobs' placements while every node is still
  // Up (Node::allocate requires an available node), then apply the saved
  // node states. Completed/cancelled jobs keep their historical placement
  // on the Job record but hold nothing in the cluster.
  cluster::Cluster& cl = system.cluster();
  for (const rms::Job* job : server.jobs().running()) {
    for (const auto& share : job->placement().shares)
      cl.node(share.node).allocate(job->id(), share.cores);
  }
  DBS_REQUIRE(s.node_states.size() == cl.node_count(),
              "snapshot node count does not match the cluster");
  for (std::size_t i = 0; i < s.node_states.size(); ++i) {
    DBS_REQUIRE(
        s.node_states[i] <= static_cast<std::uint8_t>(
                                cluster::NodeState::Offline),
        "snapshot node state out of range");
    const auto state = static_cast<cluster::NodeState>(s.node_states[i]);
    if (state != cluster::NodeState::Up)
      cl.set_node_state(NodeId(i), state);
  }
  cl.check_invariants();

  // Re-arm every reconstructible pending event: mom completions and
  // ask/release descriptors, deferred retirements, the scheduler poll.
  for (const auto& m : s.moms) system.moms().restore_runtime(m);
  server.rearm_retirements();
  system.scheduler().restore_service_state(s.scheduler);
  system.recorder_mut().restore_state(s.metrics);
}

// --- snapshot codec --------------------------------------------------------

std::vector<unsigned char> encode_state(const SystemState& s) {
  std::vector<unsigned char> out;
  Writer w(out);
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.time(s.now);
  w.u64(s.next_job);
  w.u64(s.next_request);
  w.u32(static_cast<std::uint32_t>(s.jobs.size()));
  for (const auto& e : s.jobs) put_job_entry(w, e);
  w.u32(static_cast<std::uint32_t>(s.dyn_fifo.size()));
  for (const auto& d : s.dyn_fifo) put_dyn_request(w, d);
  w.u32(static_cast<std::uint32_t>(s.hints.size()));
  for (const auto& [job, at] : s.hints) {
    w.u64(job.value());
    w.time(at);
  }
  w.u32(static_cast<std::uint32_t>(s.node_states.size()));
  for (const auto v : s.node_states) w.u8(v);
  w.u32(static_cast<std::uint32_t>(s.moms.size()));
  for (const auto& m : s.moms) put_mom(w, m);
  put_scheduler(w, s.scheduler);
  put_metrics(w, s.metrics);
  w.time(s.last_admitted);
  w.u64(s.wal_ingest);
  w.u64(s.wal_decisions);
  for (const auto v : s.rng) w.u64(v);
  return out;
}

SystemState decode_state(const unsigned char* data, std::size_t size) {
  Reader r(data, size);
  DBS_REQUIRE(r.u32() == kSnapshotMagic, "not a DBSS snapshot");
  const std::uint32_t version = r.u32();
  DBS_REQUIRE(version == kSnapshotVersion,
              "unsupported snapshot version " + std::to_string(version));
  SystemState s;
  s.now = r.time();
  s.next_job = r.u64();
  s.next_request = r.u64();
  const std::size_t nj = r.count(1);
  s.jobs.reserve(nj);
  for (std::size_t i = 0; i < nj; ++i) s.jobs.push_back(get_job_entry(r));
  const std::size_t nd = r.count(40);
  s.dyn_fifo.reserve(nd);
  for (std::size_t i = 0; i < nd; ++i)
    s.dyn_fifo.push_back(get_dyn_request(r));
  const std::size_t nh = r.count(16);
  s.hints.reserve(nh);
  for (std::size_t i = 0; i < nh; ++i) {
    const JobId job{r.u64()};
    s.hints.emplace_back(job, r.time());
  }
  const std::size_t nn = r.count(1);
  s.node_states.reserve(nn);
  for (std::size_t i = 0; i < nn; ++i) s.node_states.push_back(r.u8());
  const std::size_t nm = r.count(8);
  s.moms.reserve(nm);
  for (std::size_t i = 0; i < nm; ++i) s.moms.push_back(get_mom(r));
  s.scheduler = get_scheduler(r);
  s.metrics = get_metrics(r);
  s.last_admitted = r.time();
  s.wal_ingest = r.u64();
  s.wal_decisions = r.u64();
  for (auto& v : s.rng) v = r.u64();
  DBS_REQUIRE(r.done(), "trailing bytes after snapshot");
  return s;
}

SystemState decode_state(const std::vector<unsigned char>& b) {
  return decode_state(b.data(), b.size());
}

// --- WAL payload codecs ----------------------------------------------------

std::vector<unsigned char> encode_decision(Time at, std::uint64_t iteration,
                                           const rms::Decision& d) {
  std::vector<unsigned char> out;
  Writer w(out);
  w.time(at);
  w.u64(iteration);
  w.u8(static_cast<std::uint8_t>(d.kind));
  w.u64(d.job.value());
  w.u64(d.for_job.value());
  w.u64(d.request.value());
  w.i32(d.cores);
  w.time(d.start);
  w.boolean(d.backfilled);
  w.boolean(d.applied);
  w.boolean(d.deferred);
  w.str(d.reason);
  w.opt_time(d.hint);
  return out;
}

std::vector<unsigned char> encode_ingest(const IngestRecord& r) {
  std::vector<unsigned char> out;
  Writer w(out);
  w.u64(r.seq);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.time(r.requested);
  w.time(r.admitted);
  put_spec(w, r.spec);
  put_behavior(w, r.behavior);
  w.u64(r.job.value());
  return out;
}

IngestRecord decode_ingest(const unsigned char* data, std::size_t size) {
  Reader r(data, size);
  IngestRecord rec;
  rec.seq = r.u64();
  const std::uint8_t kind = r.u8();
  DBS_REQUIRE(kind == static_cast<std::uint8_t>(IngestKind::Submit) ||
                  kind == static_cast<std::uint8_t>(IngestKind::Cancel),
              "WAL ingest kind out of range");
  rec.kind = static_cast<IngestKind>(kind);
  rec.requested = r.time();
  rec.admitted = r.time();
  rec.spec = get_spec(r);
  rec.behavior = get_behavior(r);
  rec.job = JobId(r.u64());
  DBS_REQUIRE(r.done(), "trailing bytes after WAL ingest record");
  return rec;
}

// --- WAL writer ------------------------------------------------------------

WalWriter::WalWriter(const std::string& path, std::uint64_t keep_bytes)
    : path_(path) {
  if (keep_bytes == 0) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    DBS_REQUIRE(fd_ >= 0, "cannot create WAL: " + path);
    unsigned char header[kWalHeaderSize];
    store_le<std::uint32_t>(header, kWalMagic);
    store_le<std::uint32_t>(header + 4, kWalVersion);
    write_all(fd_, header, sizeof(header), path_);
    fsync_checked(fd_, path_);
    fsync_parent_dir(path_);
  } else {
    DBS_REQUIRE(keep_bytes >= kWalHeaderSize,
                "WAL keep offset inside the header");
    fd_ = ::open(path.c_str(), O_WRONLY, 0644);
    DBS_REQUIRE(fd_ >= 0, "cannot open WAL: " + path);
    DBS_REQUIRE(::ftruncate(fd_, static_cast<off_t>(keep_bytes)) == 0,
                "cannot truncate WAL: " + path);
    DBS_REQUIRE(::lseek(fd_, 0, SEEK_END) ==
                    static_cast<off_t>(keep_bytes),
                "cannot seek WAL: " + path);
    fsync_checked(fd_, path_);
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (!buffer_.empty())
      write_all(fd_, buffer_.data(), buffer_.size(), path_);
    ::fsync(fd_);
    ::close(fd_);
  }
}

void WalWriter::append_record(std::uint8_t type,
                              const std::vector<unsigned char>& payload) {
  buffer_.push_back(type);
  unsigned char len[4];
  store_le<std::uint32_t>(len, static_cast<std::uint32_t>(payload.size()));
  buffer_.insert(buffer_.end(), len, len + 4);
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
}

void WalWriter::append_ingest(const IngestRecord& r) {
  append_record(kWalIngest, encode_ingest(r));
  ++ingest_;
}

void WalWriter::append_decision(Time at, std::uint64_t iteration,
                                const rms::Decision& d) {
  append_record(kWalDecision, encode_decision(at, iteration, d));
  ++decisions_;
}

void WalWriter::sync() {
  if (!buffer_.empty()) {
    write_all(fd_, buffer_.data(), buffer_.size(), path_);
    buffer_.clear();
  }
  fsync_checked(fd_, path_);
}

// --- WAL reader ------------------------------------------------------------

WalContents read_wal(const std::string& path) {
  WalContents out;
  if (!std::filesystem::exists(path)) {
    out.valid_bytes = 0;
    return out;
  }
  const std::vector<unsigned char> data = read_file(path);
  DBS_REQUIRE(data.size() >= kWalHeaderSize, "WAL shorter than its header");
  DBS_REQUIRE(load_le<std::uint32_t>(data.data()) == kWalMagic,
              "not a DBSW WAL");
  const std::uint32_t version = load_le<std::uint32_t>(data.data() + 4);
  DBS_REQUIRE(version == kWalVersion,
              "unsupported WAL version " + std::to_string(version));

  std::size_t pos = kWalHeaderSize;
  // Anything that fails to parse past this point is a torn tail from a
  // crash mid-append: stop at the last complete record rather than throw.
  while (pos + 5 <= data.size()) {
    const std::uint8_t type = data[pos];
    const std::uint32_t len = load_le<std::uint32_t>(data.data() + pos + 1);
    if (type != kWalIngest && type != kWalDecision) break;
    if (pos + 5 + len > data.size()) break;
    const unsigned char* payload = data.data() + pos + 5;
    if (type == kWalIngest) {
      IngestRecord rec;
      try {
        rec = decode_ingest(payload, len);
      } catch (const precondition_error&) {
        break;
      }
      out.ingest.push_back(std::move(rec));
    } else {
      if (len < 16) break;
      WalDecision d;
      d.at = Time::from_micros(load_le<std::int64_t>(payload));
      d.iteration = load_le<std::uint64_t>(payload + 8);
      d.payload.assign(payload, payload + len);
      out.decisions.push_back(std::move(d));
    }
    pos += 5 + len;
  }
  out.valid_bytes = pos;
  return out;
}

// --- state directory layout ------------------------------------------------

std::string wal_path(const std::string& state_dir) {
  return state_dir + "/wal.dbsw";
}

std::string snapshot_path(const std::string& state_dir,
                          std::uint64_t decisions) {
  return state_dir + "/snapshot-" + std::to_string(decisions) + ".dbss";
}

void write_snapshot(const std::string& state_dir, const SystemState& s) {
  const std::vector<unsigned char> bytes = encode_state(s);
  const std::string final_path = snapshot_path(state_dir, s.wal_decisions);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DBS_REQUIRE(fd >= 0, "cannot create snapshot: " + tmp_path);
  write_all(fd, bytes.data(), bytes.size(), tmp_path);
  fsync_checked(fd, tmp_path);
  ::close(fd);
  DBS_REQUIRE(::rename(tmp_path.c_str(), final_path.c_str()) == 0,
              "cannot rename snapshot into place: " + final_path);
  fsync_parent_dir(final_path);
}

std::optional<SystemState> load_best_snapshot(const std::string& state_dir,
                                              std::uint64_t wal_ingest,
                                              std::uint64_t wal_decisions) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(state_dir)) return std::nullopt;

  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".dbss")) continue;
    const std::string digits =
        name.substr(9, name.size() - 9 - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    candidates.emplace_back(std::stoull(digits), entry.path().string());
  }
  // Newest (most decisions already covered) first; the WAL-consistency
  // check below skips snapshots from a future the truncated WAL no longer
  // reaches.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [decisions, path] : candidates) {
    SystemState s;
    try {
      s = decode_state(read_file(path));
    } catch (const precondition_error&) {
      continue;  // unreadable/corrupt snapshot: an older one still works
    }
    if (s.wal_decisions <= wal_decisions && s.wal_ingest <= wal_ingest)
      return s;
  }
  return std::nullopt;
}

std::size_t prune_snapshots(const std::string& state_dir, std::size_t keep) {
  namespace fs = std::filesystem;
  if (keep == 0 || !fs::is_directory(state_dir)) return 0;

  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".dbss")) continue;
    const std::string digits = name.substr(9, name.size() - 9 - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    candidates.emplace_back(std::stoull(digits), entry.path().string());
  }
  if (candidates.size() <= keep) return 0;
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::size_t removed = 0;
  std::error_code ec;
  for (std::size_t i = keep; i < candidates.size(); ++i)
    if (fs::remove(candidates[i].second, ec)) ++removed;
  return removed;
}

}  // namespace dbs::svc
