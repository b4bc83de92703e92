// Random-access reader for flight-recorder files.
//
// open() validates magic/version at both ends of the file, then loads the
// string table, the job-index entry table and the time index into memory —
// O(jobs + strings + buckets), independent of record count. Every section
// is decoded by the bounded common::Reader, and every job's posting list
// is checked to lie inside the postings section, so a corrupt count fails
// open() with an error naming the section instead of driving an
// allocation. Records and posting lists stay on disk and are read on
// demand:
//
//   for_job(j)        — one hash lookup, one postings seek, k record seeks
//   scan_range(a, b)  — time index gives the start ordinal; reads forward
//   scan_all(fn)      — sequential streaming pass, constant memory
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/recorder/record.hpp"

namespace dbs::obs::rec {

class RecordReader {
 public:
  RecordReader() = default;

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  /// Opens and validates `path`. On failure returns false and stores a
  /// human-readable reason in `error()`.
  bool open(const std::string& path);

  [[nodiscard]] bool is_open() const { return in_.is_open(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] std::uint64_t record_count() const { return record_count_; }
  /// Total cluster cores at record time (from the header).
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t time_bucket_us() const { return bucket_us_; }
  [[nodiscard]] std::uint64_t indexed_jobs() const {
    return job_index_.size();
  }
  [[nodiscard]] const std::string& string_at(std::uint16_t id) const {
    return id < strings_.size() ? strings_[id] : strings_[0];
  }

  /// Reads the record at `ordinal` (0-based append order).
  [[nodiscard]] PackedRecord at(std::uint64_t ordinal);

  /// All records touching `job`, in append order. O(1) index lookup plus
  /// one seek per posting; empty if the job is unknown.
  [[nodiscard]] std::vector<PackedRecord> for_job(std::uint64_t job);

  /// True if `job` appears in the index (no record reads).
  [[nodiscard]] bool has_job(std::uint64_t job) const {
    return job_index_.find(job) != job_index_.end();
  }

  /// Jobs present in the index, ascending.
  [[nodiscard]] std::vector<std::uint64_t> jobs() const;

  /// Streams records with from_us <= t_us < to_us to `fn`, starting from
  /// the time bucket containing `from_us` (never a full-file scan when
  /// the range starts late). Returns the number of records visited.
  std::uint64_t scan_range(std::int64_t from_us, std::int64_t to_us,
                           const std::function<void(const PackedRecord&)>& fn);

  /// Streams every record in append order.
  std::uint64_t scan_all(const std::function<void(const PackedRecord&)>& fn) {
    return scan_range(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max(), fn);
  }

 private:
  bool fail(std::string message);

  std::ifstream in_;
  std::string error_;
  std::uint64_t record_count_ = 0;
  std::int64_t capacity_ = 0;
  std::int64_t bucket_us_ = 1;
  std::uint64_t postings_off_ = 0;
  std::vector<std::string> strings_{""};
  std::unordered_map<std::uint64_t, JobIndexEntry> job_index_;
  TimeIndex time_index_;
};

}  // namespace dbs::obs::rec
