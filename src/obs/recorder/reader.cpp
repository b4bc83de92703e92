#include "obs/recorder/reader.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace dbs::obs::rec {

namespace {

/// Reads [begin, end) of `in` into `bytes` and returns a bounded reader
/// over them that names `what` and reports file offsets.
common::Reader section(std::ifstream& in, std::uint64_t begin,
                       std::uint64_t end, std::string_view what,
                       std::vector<unsigned char>& bytes) {
  bytes.resize(end - begin);
  in.seekg(static_cast<std::streamoff>(begin));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in.good())
    throw precondition_error(std::string(what) + ": read error at byte " +
                             std::to_string(begin));
  return common::Reader(bytes.data(), bytes.size(), what, begin);
}

}  // namespace

bool RecordReader::fail(std::string message) {
  error_ = std::move(message);
  if (in_.is_open()) in_.close();
  return false;
}

bool RecordReader::open(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) return fail("cannot open " + path);
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  if (file_size < kHeaderSize + kFooterSize)
    return fail(path + ": truncated (no room for header + footer)");
  try {
    std::vector<unsigned char> bytes;
    FileHeader header;
    common::Reader header_reader =
        section(in_, 0, kHeaderSize, "header", bytes);
    fields(header_reader, header);
    if (header.magic != kMagic)
      return fail(path + ": not a flight-recorder file (bad magic)");
    if (header.version != kFormatVersion)
      return fail(path + ": unsupported format version " +
                  std::to_string(header.version) + " (reader supports " +
                  std::to_string(kFormatVersion) + ")");
    if (header.record_size != kRecordSize)
      return fail(path + ": unexpected record size");
    capacity_ = header.capacity;
    bucket_us_ = header.time_bucket_us;
    if (bucket_us_ <= 0) return fail(path + ": invalid time bucket");

    const std::uint64_t indexes_end = file_size - kFooterSize;
    Footer footer;
    common::Reader footer_reader =
        section(in_, indexes_end, file_size, "footer", bytes);
    fields(footer_reader, footer);
    if (footer.version != kFormatVersion || footer.magic != kMagic)
      return fail(path + ": corrupt footer (run not finalized?)");
    // The sections follow the records in file order.
    if (footer.record_count > (indexes_end - kHeaderSize) / kRecordSize ||
        footer.strings_off != kHeaderSize + footer.record_count * kRecordSize ||
        footer.job_index_off < footer.strings_off ||
        footer.postings_off < footer.job_index_off ||
        footer.time_index_off < footer.postings_off ||
        footer.time_index_off > indexes_end)
      return fail(path + ": footer offsets out of range");
    record_count_ = footer.record_count;
    postings_off_ = footer.postings_off;

    common::Reader strings_reader = section(
        in_, footer.strings_off, footer.job_index_off, "string table", bytes);
    string_table(strings_reader, strings_);
    if (strings_.empty()) strings_.emplace_back();

    std::vector<JobIndexEntry> entries;
    common::Reader jobs_reader = section(
        in_, footer.job_index_off, footer.postings_off, "job index", bytes);
    job_index(jobs_reader, entries);
    if (entries.size() != footer.job_count)
      return fail(path + ": job index count mismatch");
    // Every posting list must lie inside the postings section, so for_job
    // never reads past it.
    const std::uint64_t postings =
        (footer.time_index_off - footer.postings_off) / 8;
    job_index_.reserve(entries.size());
    for (const JobIndexEntry& e : entries) {
      if (e.postings_start > postings || e.count > postings - e.postings_start)
        return fail(path + ": job " + std::to_string(e.job) +
                    " has more postings than the postings section holds");
      job_index_.emplace(e.job, e);
    }

    common::Reader time_reader = section(in_, footer.time_index_off,
                                         indexes_end, "time index", bytes);
    fields(time_reader, time_index_);
  } catch (const precondition_error& e) {
    return fail(path + ": " + e.what());
  }
  return true;
}

PackedRecord RecordReader::at(std::uint64_t ordinal) {
  unsigned char raw[kRecordSize] = {};
  if (ordinal < record_count_) {
    in_.seekg(static_cast<std::streamoff>(kHeaderSize + ordinal * kRecordSize));
    in_.read(reinterpret_cast<char*>(raw), kRecordSize);
  }
  return decode_record(raw);
}

std::vector<PackedRecord> RecordReader::for_job(std::uint64_t job) {
  std::vector<PackedRecord> records;
  const auto it = job_index_.find(job);
  if (it == job_index_.end()) return records;
  // open() checked that the list lies inside the postings section.
  const JobIndexEntry& entry = it->second;
  const std::uint64_t begin = postings_off_ + entry.postings_start * 8;
  std::vector<unsigned char> bytes;
  common::Reader postings = section(
      in_, begin, begin + std::uint64_t{entry.count} * 8, "postings", bytes);
  records.reserve(entry.count);
  for (std::uint32_t i = 0; i < entry.count; ++i) {
    std::uint64_t ordinal = 0;
    postings.u64(ordinal);
    records.push_back(at(ordinal));
  }
  return records;
}

std::vector<std::uint64_t> RecordReader::jobs() const {
  std::vector<std::uint64_t> out;
  out.reserve(job_index_.size());
  for (const auto& [job, entry] : job_index_) out.push_back(job);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t RecordReader::scan_range(
    std::int64_t from_us, std::int64_t to_us,
    const std::function<void(const PackedRecord&)>& fn) {
  if (record_count_ == 0 || from_us >= to_us) return 0;
  std::uint64_t start = 0;
  const std::vector<std::uint64_t>& firsts = time_index_.bucket_first;
  const std::int64_t from_bucket = from_us / bucket_us_;
  if (!firsts.empty() && from_us > std::numeric_limits<std::int64_t>::min() &&
      from_bucket > time_index_.first_bucket) {
    // first_bucket comes from the file: subtract unsigned, which cannot
    // overflow once from_bucket is the larger.
    const std::uint64_t bucket =
        static_cast<std::uint64_t>(from_bucket) -
        static_cast<std::uint64_t>(time_index_.first_bucket);
    if (bucket >= firsts.size()) return 0;
    start = firsts[bucket];
  }
  std::uint64_t visited = 0;
  in_.seekg(static_cast<std::streamoff>(kHeaderSize + start * kRecordSize));
  unsigned char raw[kRecordSize];
  for (std::uint64_t ordinal = start; ordinal < record_count_; ++ordinal) {
    in_.read(reinterpret_cast<char*>(raw), kRecordSize);
    const PackedRecord r = decode_record(raw);
    if (r.t_us >= to_us) break;  // timestamps are nondecreasing
    if (r.t_us >= from_us) {
      fn(r);
      ++visited;
    }
  }
  return visited;
}

}  // namespace dbs::obs::rec
