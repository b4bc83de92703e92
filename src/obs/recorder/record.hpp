// The flight recorder's on-disk vocabulary: one fixed-size packed record
// per scheduler decision or job-lifecycle event.
//
// A record file is an append-only stream of kRecordSize-byte records
// followed by (at finalize time) a string table, a per-job posting index,
// a time-bucket index and a fixed-size footer locating them — the
// packed-header + indexed-storage idiom. Fixed-size records mean a record
// ordinal converts to a file offset with one multiply, so the job index
// stores bare ordinals and a per-job lookup is "hash the job id, seek the
// postings, seek each record" — never a full-file scan.
//
// All integers are stored little-endian through the shared byte codec
// (common/byte_codec.hpp), so files are portable across hosts. Strings
// (user names, reject reasons) are interned into the string table and
// referenced by 16-bit id; id 0 is always the empty string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.hpp"

namespace dbs::obs::rec {

/// File format version; bump on any layout change. Readers reject files
/// whose major version they do not understand (see DESIGN.md §10).
inline constexpr std::uint32_t kFormatVersion = 1;
/// "DBSR" little-endian.
inline constexpr std::uint32_t kMagic = 0x52534244;
/// Bytes per packed record.
inline constexpr std::size_t kRecordSize = 48;
/// Bytes of the fixed header at offset 0.
inline constexpr std::size_t kHeaderSize = 32;
/// Bytes of the fixed footer at end-of-file.
inline constexpr std::size_t kFooterSize = 64;

/// What one record describes. Values are stable on-disk ids: lifecycle
/// events (from the server's observer paths) live below 16, scheduler
/// decisions (the rms::Decision stream) at 16+kind.
enum class RecordType : std::uint8_t {
  Submit = 0,           ///< qsub accepted; user/cores/walltime in the record
  Start = 1,            ///< job started (aux = wait in us)
  Finish = 2,           ///< job completed (cores = released allocation)
  DynRequest = 3,       ///< tm_dynget arrived (cores = extra asked)
  DynGrant = 4,         ///< request granted by the server (cores = extra)
  DynReject = 5,        ///< request finally rejected
  DynRelease = 6,       ///< application released cores voluntarily
  MalleableShrink = 7,  ///< scheduler-initiated shrink committed
  Requeue = 8,          ///< preemption / failure sent the job back to queued
  NodesLost = 9,        ///< partial allocation lost to a node failure
  Cancel = 10,          ///< qdel (cores = allocation released, 0 if queued)
  DecStartJob = 16,         ///< decision: start a queued job
  DecGrantDyn = 17,         ///< decision: grant a dynamic request
  DecRejectDyn = 18,        ///< decision: reject/defer a dynamic request
  DecPreempt = 19,          ///< decision: preempt a running job
  DecShrinkMalleable = 20,  ///< decision: shrink a malleable job
  DecReserve = 21,          ///< decision: keep a StartLater reservation
};

[[nodiscard]] constexpr bool is_decision(RecordType t) {
  return static_cast<std::uint8_t>(t) >= 16;
}

[[nodiscard]] std::string_view to_string(RecordType t);

/// Record flag bits.
inline constexpr std::uint8_t kFlagBackfilled = 1;  ///< Start/DecStartJob
inline constexpr std::uint8_t kFlagApplied = 2;     ///< decisions
inline constexpr std::uint8_t kFlagDeferred = 4;    ///< DecRejectDyn
inline constexpr std::uint8_t kFlagHasHint = 8;     ///< DecRejectDyn: aux valid

/// Sentinel for "no id" in the 32-bit job/other/request fields.
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// One decoded record. The meaning of `aux_us` depends on `type`:
/// Start → wait (submit→start) in us; Submit → requested walltime in us;
/// DecReserve → planned start (absolute us); DecRejectDyn → availability
/// hint (absolute us, valid only with kFlagHasHint).
struct PackedRecord {
  std::int64_t t_us = 0;   ///< simulated time of the record
  std::int64_t aux_us = 0;
  std::uint32_t job = kNoId;      ///< the job acted on
  std::uint32_t other = kNoId;    ///< for_job (decisions)
  std::uint32_t request = kNoId;  ///< dynamic request id, if any
  std::int32_t cores = 0;
  std::uint32_t iteration = 0;    ///< scheduler iteration (decisions only)
  std::uint16_t user = 0;         ///< string-table id (Submit)
  std::uint16_t reason = 0;       ///< string-table id (DecRejectDyn)
  RecordType type = RecordType::Submit;
  std::uint8_t flags = 0;

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }
};

// --- field lists ------------------------------------------------------------
// One template per on-disk structure, run by RecordWriter (common::Writer)
// and RecordReader (common::Reader, which bounds every read and count; see
// common/byte_codec.hpp). The call order is the file layout of DESIGN.md
// §10; changing it needs a kFormatVersion bump.

template <class Io, common::Is<PackedRecord> R>
void fields(Io& io, R& r) {
  io.i64(r.t_us);
  io.i64(r.aux_us);
  io.u32(r.job);
  io.u32(r.other);
  io.u32(r.request);
  io.i32(r.cores);
  io.u32(r.iteration);
  io.u16(r.user);
  io.u16(r.reason);
  io.enum8(r.type);
  io.u8(r.flags);
  io.pad(6);  // to kRecordSize
}

/// The fixed kHeaderSize-byte header at offset 0.
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t record_size = static_cast<std::uint32_t>(kRecordSize);
  std::int64_t capacity = 0;  ///< cluster cores
  std::int64_t time_bucket_us = 0;
};

template <class Io, common::Is<FileHeader> H>
void fields(Io& io, H& h) {
  io.u32(h.magic);
  io.u32(h.version);
  io.u32(h.record_size);
  io.pad(4);  // reserved
  io.i64(h.capacity);
  io.i64(h.time_bucket_us);
}

/// The fixed kFooterSize-byte footer at end-of-file, locating the index
/// sections.
struct Footer {
  std::uint64_t record_count = 0;
  std::uint64_t strings_off = 0;
  std::uint64_t job_index_off = 0;
  std::uint64_t postings_off = 0;
  std::uint64_t time_index_off = 0;
  std::uint64_t job_count = 0;
  std::uint64_t total_postings = 0;
  std::uint32_t version = kFormatVersion;
  std::uint32_t magic = kMagic;
};

template <class Io, common::Is<Footer> F>
void fields(Io& io, F& f) {
  io.u64(f.record_count);
  io.u64(f.strings_off);
  io.u64(f.job_index_off);
  io.u64(f.postings_off);
  io.u64(f.time_index_off);
  io.u64(f.job_count);
  io.u64(f.total_postings);
  io.u32(f.version);
  io.u32(f.magic);
}

/// One job's entry in the job index: where its posting list (u64 record
/// ordinals) starts in the postings section, and its length.
struct JobIndexEntry {
  std::uint64_t job = 0;
  std::uint64_t postings_start = 0;  ///< in postings, not bytes
  std::uint32_t count = 0;
};

template <class Io, common::Is<JobIndexEntry> E>
void fields(Io& io, E& e) {
  io.u64(e.job);
  io.u64(e.postings_start);
  io.u32(e.count);
  io.pad(4);
}

/// The job index section's entry table, sorted by job.
template <class Io, common::Is<std::vector<JobIndexEntry>> V>
void job_index(Io& io, V& entries) {
  io.seq(entries, 24, [&](auto& e) { fields(io, e); });
}

/// The string table section; id = position, id 0 = "".
template <class Io, common::Is<std::vector<std::string>> V>
void string_table(Io& io, V& strings) {
  io.seq(strings, 2, [&](auto& s) { io.str16(s); });
}

/// The time index section: the first ordinal of every time bucket from
/// `first_bucket` on.
struct TimeIndex {
  std::int64_t first_bucket = 0;
  std::vector<std::uint64_t> bucket_first;
};

template <class Io, common::Is<TimeIndex> T>
void fields(Io& io, T& t) {
  io.i64(t.first_bucket);
  io.seq(t.bucket_first, 8, [&](auto& ordinal) { io.u64(ordinal); });
}

/// Appends exactly kRecordSize bytes encoding `r` to `out`.
inline void encode_record(const PackedRecord& r,
                          std::vector<unsigned char>& out) {
  common::Writer w(out);
  fields(w, r);
}

/// Decodes the kRecordSize bytes at `in`.
inline PackedRecord decode_record(const unsigned char* in) {
  common::Reader r(in, kRecordSize, "record");
  PackedRecord out;
  fields(r, out);
  return out;
}

}  // namespace dbs::obs::rec
