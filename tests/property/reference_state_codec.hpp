// The snapshot and WAL payload codec as it was while every type's field
// list was written out twice, once in a put_* writer and once in a get_*
// reader, kept as the reference for differential testing of the shared
// field lists in svc/state_store.cpp. Only the namespace, the header-only
// packaging (inline) and the source of store_le/load_le changed.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/byte_codec.hpp"
#include "svc/state_store.hpp"

namespace dbs::svc::testing {

using common::load_le;
using common::store_le;

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

inline void put_credentials(Writer& w, const Credentials& c) {
  w.str(c.user);
  w.str(c.group);
  w.str(c.account);
  w.str(c.job_class);
  w.str(c.qos);
}

inline Credentials get_credentials(Reader& r) {
  Credentials c;
  c.user = r.str();
  c.group = r.str();
  c.account = r.str();
  c.job_class = r.str();
  c.qos = r.str();
  return c;
}

inline void put_spec(Writer& w, const rms::JobSpec& s) {
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

inline rms::JobSpec get_spec(Reader& r) {
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

inline void put_behavior(Writer& w, const wl::Behavior& b) {
  w.duration(b.static_runtime);
  w.boolean(b.evolving);
  w.f64(b.first_ask_frac);
  w.f64(b.retry_frac);
  w.i32(b.ask_cores);
  w.duration(b.negotiation_timeout);
  w.boolean(b.malleable);
}

inline wl::Behavior get_behavior(Reader& r) {
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

inline void put_placement(Writer& w, const cluster::Placement& p) {
  w.u32(static_cast<std::uint32_t>(p.shares.size()));
  for (const auto& share : p.shares) {
    w.u64(share.node.value());
    w.i32(share.cores);
  }
}

inline cluster::Placement get_placement(Reader& r) {
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

inline void put_app(Writer& w, const rms::AppState& a) {
  w.u32(a.kind);
  w.u32(static_cast<std::uint32_t>(a.ints.size()));
  for (const auto v : a.ints) w.i64(v);
  w.u32(static_cast<std::uint32_t>(a.doubles.size()));
  for (const auto v : a.doubles) w.f64(v);
}

inline rms::AppState get_app(Reader& r) {
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

inline void put_job_entry(Writer& w, const SystemState::JobEntry& e) {
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

inline SystemState::JobEntry get_job_entry(Reader& r) {
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

inline void put_dyn_request(Writer& w, const rms::DynRequest& d) {
  w.u64(d.id.value());
  w.u64(d.job.value());
  w.i32(d.extra_cores);
  w.time(d.submitted);
  w.i32(d.attempt);
  w.time(d.deadline);
}

inline rms::DynRequest get_dyn_request(Reader& r) {
  rms::DynRequest d;
  d.id = RequestId(r.u64());
  d.job = JobId(r.u64());
  d.extra_cores = r.i32();
  d.submitted = r.time();
  d.attempt = r.i32();
  d.deadline = r.time();
  return d;
}

inline void put_mom(Writer& w, const rms::MomManager::RuntimeState& m) {
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

inline rms::MomManager::RuntimeState get_mom(Reader& r) {
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

inline void put_scheduler(Writer& w,
                          const core::MauiScheduler::ServiceState& s) {
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

inline core::MauiScheduler::ServiceState get_scheduler(Reader& r) {
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

inline void put_job_record(Writer& w, const metrics::JobRecord& j) {
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

inline metrics::JobRecord get_job_record(Reader& r) {
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

inline void put_metrics(Writer& w, const metrics::Recorder::State& m) {
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

inline metrics::Recorder::State get_metrics(Reader& r) {
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

inline std::vector<unsigned char> encode_state(const SystemState& s) {
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

inline SystemState decode_state(const unsigned char* data,
                                std::size_t size) {
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

inline SystemState decode_state(const std::vector<unsigned char>& b) {
  return decode_state(b.data(), b.size());
}

// --- WAL payload codecs ----------------------------------------------------

inline std::vector<unsigned char> encode_decision(
    Time at, std::uint64_t iteration, const rms::Decision& d) {
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

inline std::vector<unsigned char> encode_ingest(const IngestRecord& r) {
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

inline IngestRecord decode_ingest(const unsigned char* data,
                                  std::size_t size) {
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

}  // namespace dbs::svc::testing
