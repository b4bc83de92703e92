#include "svc/state_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>

#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "common/assert.hpp"
#include "common/byte_codec.hpp"

namespace dbs::svc {
namespace {

using common::Is;
using common::Reader;
using common::store_le;
using common::Writer;

// --- field lists -----------------------------------------------------------
// One template per on-disk type, run by the encoder (a Writer over a const
// object) and by the decoder (a Reader filling the object in). The call
// order below IS the snapshot and WAL layout (DESIGN.md §13): reordering a
// line changes the format and needs a kSnapshotVersion/kWalVersion bump.
// The counts passed to seq() are each element's minimum encoded size, the
// decoder's bound on a count read from the file.

/// The 8-byte head of a snapshot or WAL file.
struct FileHead {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
};

template <class Io, Is<FileHead> H>
void fields(Io& io, H& h) {
  io.u32(h.magic);
  io.u32(h.version);
}

template <class Io, Is<Credentials> C>
void fields(Io& io, C& c) {
  io.str(c.user);
  io.str(c.group);
  io.str(c.account);
  io.str(c.job_class);
  io.str(c.qos);
}

template <class Io, Is<rms::JobSpec> S>
void fields(Io& io, S& s) {
  io.str(s.name);
  fields(io, s.cred);
  io.i32(s.cores);
  io.i32(s.ppn);
  io.duration(s.walltime);
  io.boolean(s.exclusive_priority);
  io.boolean(s.preemptible);
  io.i32(s.malleable_min);
  io.str(s.type_tag);
}

template <class Io, Is<wl::Behavior> B>
void fields(Io& io, B& b) {
  io.duration(b.static_runtime);
  io.boolean(b.evolving);
  io.f64(b.first_ask_frac);
  io.f64(b.retry_frac);
  io.i32(b.ask_cores);
  io.duration(b.negotiation_timeout);
  io.boolean(b.malleable);
}

template <class Io, Is<cluster::Placement> P>
void fields(Io& io, P& p) {
  io.seq(p.shares, 12, [&](auto& share) {
    io.id(share.node);
    io.i32(share.cores);
  });
}

template <class Io, Is<rms::AppState> A>
void fields(Io& io, A& a) {
  io.u32(a.kind);
  io.seq(a.ints, 8, [&](auto& v) { io.i64(v); });
  io.seq(a.doubles, 8, [&](auto& v) { io.f64(v); });
}

template <class Io, Is<SystemState::JobEntry> E>
void fields(Io& io, E& e) {
  io.id(e.id);
  fields(io, e.spec);
  io.time(e.submit);
  io.enum8(e.restore.state, rms::JobState::Queued, rms::JobState::Cancelled,
           "job state");
  io.opt_time(e.restore.start);
  io.opt_time(e.restore.end);
  fields(io, e.restore.placement);
  io.boolean(e.restore.backfilled);
  io.i32(e.restore.dyn_requests_made);
  io.i32(e.restore.dyn_grants);
  io.i32(e.restore.dyn_rejects);
  fields(io, e.app);
}

template <class Io, Is<rms::DynRequest> D>
void fields(Io& io, D& d) {
  io.id(d.id);
  io.id(d.job);
  io.i32(d.extra_cores);
  io.time(d.submitted);
  io.i32(d.attempt);
  io.time(d.deadline);
}

template <class Io, Is<rms::MomManager::RuntimeState> M>
void fields(Io& io, M& m) {
  io.id(m.job);
  io.i32(m.cores);
  io.time(m.finish_at);
  io.boolean(m.has_ask);
  io.time(m.ask.at);
  io.i32(m.ask.extra_cores);
  io.duration(m.ask.timeout);
  io.i32(m.ask_attempt);
  io.boolean(m.has_release);
  io.time(m.release.at);
  io.i32(m.release.cores);
}

template <class Io, Is<core::MauiScheduler::ServiceState> S>
void fields(Io& io, S& s) {
  io.u64(s.iterations);
  io.time(s.last_usage_update);
  io.boolean(s.poll_pending);
  io.time(s.poll_at);
  io.time(s.fairshare.window_start);
  io.seq(s.fairshare.windows, 8, [&](auto& user) {
    io.str(user.first);
    io.seq(user.second, 8, [&](auto& v) { io.f64(v); });
  });
  io.time(s.dfs.interval_start);
  for (auto& entity : s.dfs.entities) {
    io.seq(entity, 12, [&](auto& delay) {
      io.str(delay.first);
      io.duration(delay.second);
    });
  }
  io.seq(s.dfs.job_delays, 16, [&](auto& delay) {
    io.id(delay.first);
    io.duration(delay.second);
  });
}

template <class Io, Is<metrics::JobRecord> J>
void fields(Io& io, J& j) {
  io.id(j.id);
  io.str(j.name);
  io.str(j.user);
  io.str(j.type_tag);
  io.i32(j.cores_requested);
  io.i32(j.cores_peak);
  io.time(j.submit);
  io.opt_time(j.start);
  io.opt_time(j.end);
  io.boolean(j.backfilled);
  io.boolean(j.evolving);
  io.i32(j.dyn_requests);
  io.i32(j.dyn_grants);
  io.i32(j.dyn_rejects);
  io.i32(j.requeues);
  io.i32(j.malleable_shrinks);
}

template <class Io, Is<metrics::Recorder::State> M>
void fields(Io& io, M& m) {
  io.u64(m.totals.submitted);
  io.u64(m.totals.completed);
  io.u64(m.totals.backfilled);
  io.u64(m.totals.evolving);
  io.u64(m.totals.satisfied_dyn);
  io.u64(m.totals.granted_dyn_requests);
  io.duration(m.totals.wait_sum);
  io.duration(m.totals.turnaround_sum);
  io.duration(m.totals.max_wait);
  io.f64(m.usage_integral);
  io.time(m.last_usage_t);
  io.i32(m.last_used);
  io.time(m.first_submit);
  io.time(m.last_finish);
  io.seq(m.live, 32, [&](auto& j) { fields(io, j); });
}

/// A snapshot after its FileHead.
template <class Io, Is<SystemState> S>
void fields(Io& io, S& s) {
  io.time(s.now);
  io.u64(s.next_job);
  io.u64(s.next_request);
  io.seq(s.jobs, 1, [&](auto& e) { fields(io, e); });
  io.seq(s.dyn_fifo, 40, [&](auto& d) { fields(io, d); });
  io.seq(s.hints, 16, [&](auto& hint) {
    io.id(hint.first);
    io.time(hint.second);
  });
  io.seq(s.node_states, 1, [&](auto& v) { io.u8(v); });
  io.seq(s.moms, 8, [&](auto& m) { fields(io, m); });
  fields(io, s.scheduler);
  fields(io, s.metrics);
  io.time(s.last_admitted);
  io.u64(s.wal_ingest);
  io.u64(s.wal_decisions);
  for (auto& v : s.rng) io.u64(v);
}

/// A WAL ingest frame's payload.
template <class Io, Is<IngestRecord> R>
void fields(Io& io, R& r) {
  io.u64(r.seq);
  io.enum8(r.kind, IngestKind::Submit, IngestKind::Cancel, "kind");
  io.time(r.requested);
  io.time(r.admitted);
  fields(io, r.spec);
  fields(io, r.behavior);
  io.id(r.job);
}

/// The framing of every WAL record: [type u8][len u32][payload].
struct FrameHead {
  std::uint8_t type = 0;
  std::uint32_t len = 0;
};
constexpr std::size_t kFrameHeadSize = 5;
/// Offset of `len` within an encoded FrameHead.
constexpr std::size_t kFrameLenOffset = 1;

template <class Io, Is<FrameHead> F>
void fields(Io& io, F& f) {
  io.u8(f.type);
  io.u32(f.len);
}

/// The head of a decision frame's payload, the only part read_wal decodes.
template <class Io, Is<WalDecision> D>
void decision_head(Io& io, D& d) {
  io.time(d.at);
  io.u64(d.iteration);
}

/// A WAL decision frame's payload. Decisions are written, never decoded:
/// recovery compares them byte for byte (encode_decision).
void decision_fields(Writer& w, Time at, std::uint64_t iteration,
                     const rms::Decision& d) {
  const WalDecision head{at, iteration, {}};
  decision_head(w, head);
  w.enum8(d.kind);
  w.id(d.job);
  w.id(d.for_job);
  w.id(d.request);
  w.i32(d.cores);
  w.time(d.start);
  w.boolean(d.backfilled);
  w.boolean(d.applied);
  w.boolean(d.deferred);
  w.str(d.reason);
  w.opt_time(d.hint);
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

/// The snapshot-<decisions>.dbss files in `state_dir` as (decisions,
/// path), newest first; empty if the directory does not exist.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& state_dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  if (!fs::is_directory(state_dir)) return found;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".dbss")) continue;
    // Digits only, and within u64 (std::stoull would throw past it).
    const char* const first = name.data() + 9;
    const char* const last = name.data() + name.size() - 5;
    std::uint64_t decisions = 0;
    const auto [end, ec] = std::from_chars(first, last, decisions);
    if (ec != std::errc{} || end != last) continue;
    found.emplace_back(decisions, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
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
  const FileHead head{kSnapshotMagic, kSnapshotVersion};
  fields(w, head);
  fields(w, s);
  return out;
}

SystemState decode_state(const unsigned char* data, std::size_t size) {
  Reader r(data, size, "snapshot");
  FileHead head;
  fields(r, head);
  DBS_REQUIRE(head.magic == kSnapshotMagic, "not a DBSS snapshot");
  DBS_REQUIRE(head.version == kSnapshotVersion,
              "unsupported snapshot version " + std::to_string(head.version));
  SystemState s;
  fields(r, s);
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
  decision_fields(w, at, iteration, d);
  return out;
}

std::vector<unsigned char> encode_ingest(const IngestRecord& r) {
  std::vector<unsigned char> out;
  Writer w(out);
  fields(w, r);
  return out;
}

IngestRecord decode_ingest(const unsigned char* data, std::size_t size) {
  Reader r(data, size, "WAL ingest");
  IngestRecord rec;
  fields(r, rec);
  DBS_REQUIRE(r.done(), "trailing bytes after WAL ingest record");
  return rec;
}

// --- WAL writer ------------------------------------------------------------

WalWriter::WalWriter(const std::string& path, std::uint64_t keep_bytes)
    : path_(path) {
  if (keep_bytes == 0) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    DBS_REQUIRE(fd_ >= 0, "cannot create WAL: " + path);
    std::vector<unsigned char> header;
    Writer w(header);
    const FileHead head{kWalMagic, kWalVersion};
    fields(w, head);
    write_all(fd_, header.data(), header.size(), path_);
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

std::size_t WalWriter::begin_frame(std::uint8_t type) {
  const std::size_t frame = buffer_.size();
  Writer w(buffer_);
  const FrameHead head{type, 0};
  fields(w, head);
  return frame;
}

void WalWriter::end_frame(std::size_t frame) {
  const std::size_t len = buffer_.size() - frame - kFrameHeadSize;
  store_le<std::uint32_t>(buffer_.data() + frame + kFrameLenOffset,
                          static_cast<std::uint32_t>(len));
}

void WalWriter::append_ingest(const IngestRecord& r) {
  const std::size_t frame = begin_frame(kWalIngest);
  Writer w(buffer_);
  fields(w, r);
  end_frame(frame);
  ++ingest_;
}

void WalWriter::append_decision(Time at, std::uint64_t iteration,
                                const rms::Decision& d) {
  const std::size_t frame = begin_frame(kWalDecision);
  Writer w(buffer_);
  decision_fields(w, at, iteration, d);
  end_frame(frame);
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
  Reader r(data.data(), data.size(), "WAL");
  FileHead head;
  fields(r, head);
  DBS_REQUIRE(head.magic == kWalMagic, "not a DBSW WAL");
  DBS_REQUIRE(head.version == kWalVersion,
              "unsupported WAL version " + std::to_string(head.version));

  // Anything that fails to parse past this point is a torn tail from a
  // crash mid-append: stop at the last complete record rather than throw.
  std::size_t valid = r.offset();
  while (r.remaining() >= kFrameHeadSize) {
    FrameHead frame;
    fields(r, frame);
    if (frame.type != kWalIngest && frame.type != kWalDecision) break;
    if (frame.len > r.remaining()) break;
    const unsigned char* payload = r.bytes(frame.len);
    try {
      if (frame.type == kWalIngest) {
        out.ingest.push_back(decode_ingest(payload, frame.len));
      } else {
        WalDecision d;
        Reader head_reader(payload, frame.len, "WAL decision");
        decision_head(head_reader, d);
        d.payload.assign(payload, payload + frame.len);
        out.decisions.push_back(std::move(d));
      }
    } catch (const precondition_error&) {
      break;
    }
    valid = r.offset();
  }
  out.valid_bytes = valid;
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
  // Newest first: the WAL-consistency check below skips snapshots from a
  // future the truncated WAL no longer reaches.
  for (const auto& [decisions, path] : list_snapshots(state_dir)) {
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
  if (keep == 0) return 0;
  const auto snapshots = list_snapshots(state_dir);
  std::size_t removed = 0;
  std::error_code ec;
  for (std::size_t i = keep; i < snapshots.size(); ++i)
    if (std::filesystem::remove(snapshots[i].second, ec)) ++removed;
  return removed;
}

}  // namespace dbs::svc
