// Flight-recorder container format: packed-record codec, writer/reader
// round trip, the job and time indexes, and rejection of corrupt files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/recorder/manifest.hpp"
#include "obs/recorder/reader.hpp"
#include "obs/recorder/writer.hpp"

namespace dbs::obs::rec {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "recorder_format_" + name + ".dbsr";
}

PackedRecord make_record(std::int64_t t_us, RecordType type,
                         std::uint32_t job) {
  PackedRecord r;
  r.t_us = t_us;
  r.type = type;
  r.job = job;
  return r;
}

TEST(RecordCodec, RoundTripsEveryField) {
  PackedRecord r;
  r.t_us = -123456789;
  r.aux_us = 987654321;
  r.job = 42;
  r.other = 7;
  r.request = 13;
  r.cores = -96;
  r.iteration = 100000;
  r.user = 3;
  r.reason = 9;
  r.type = RecordType::DecRejectDyn;
  r.flags = kFlagApplied | kFlagDeferred | kFlagHasHint;

  std::vector<unsigned char> buf;
  encode_record(r, buf);
  ASSERT_EQ(buf.size(), kRecordSize);
  const PackedRecord d = decode_record(buf.data());
  EXPECT_EQ(d.t_us, r.t_us);
  EXPECT_EQ(d.aux_us, r.aux_us);
  EXPECT_EQ(d.job, r.job);
  EXPECT_EQ(d.other, r.other);
  EXPECT_EQ(d.request, r.request);
  EXPECT_EQ(d.cores, r.cores);
  EXPECT_EQ(d.iteration, r.iteration);
  EXPECT_EQ(d.user, r.user);
  EXPECT_EQ(d.reason, r.reason);
  EXPECT_EQ(d.type, r.type);
  EXPECT_EQ(d.flags, r.flags);
  EXPECT_TRUE(d.has(kFlagDeferred));
  EXPECT_FALSE(d.has(kFlagBackfilled));
}

TEST(RecordCodec, EncodingIsLittleEndianAndPadded) {
  PackedRecord r;
  r.t_us = 0x0102030405060708;
  std::vector<unsigned char> buf;
  encode_record(r, buf);
  ASSERT_EQ(buf.size(), kRecordSize);
  EXPECT_EQ(buf[0], 0x08);  // least-significant byte first
  EXPECT_EQ(buf[7], 0x01);
  for (std::size_t i = 42; i < kRecordSize; ++i) EXPECT_EQ(buf[i], 0);
}

TEST(RecordWriter, RoundTripsRecordsStringsAndHeader) {
  const std::string path = temp_path("roundtrip");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 128, 1'000'000));

  PackedRecord submit = make_record(1000, RecordType::Submit, 1);
  submit.user = writer.intern("alice");
  submit.cores = 16;
  submit.aux_us = 60'000'000;
  writer.append(submit);

  PackedRecord reject = make_record(2000, RecordType::DecRejectDyn, 1);
  reject.reason = writer.intern("denied-target-delay");
  reject.request = 5;
  reject.flags = kFlagApplied;
  writer.append(reject);

  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_EQ(writer.first_t_us(), 1000);
  EXPECT_EQ(writer.last_t_us(), 2000);
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.record_count(), 2u);
  EXPECT_EQ(reader.capacity(), 128);
  EXPECT_EQ(reader.time_bucket_us(), 1'000'000);
  EXPECT_EQ(reader.indexed_jobs(), 1u);

  const PackedRecord r0 = reader.at(0);
  EXPECT_EQ(r0.type, RecordType::Submit);
  EXPECT_EQ(r0.cores, 16);
  EXPECT_EQ(reader.string_at(r0.user), "alice");
  const PackedRecord r1 = reader.at(1);
  EXPECT_EQ(r1.type, RecordType::DecRejectDyn);
  EXPECT_EQ(reader.string_at(r1.reason), "denied-target-delay");
  EXPECT_EQ(r1.request, 5u);
  std::remove(path.c_str());
}

TEST(RecordWriter, InternDeduplicatesAndIdZeroIsEmpty) {
  const std::string path = temp_path("intern");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 8));
  EXPECT_EQ(writer.intern(""), 0);
  const std::uint16_t a = writer.intern("alice");
  EXPECT_EQ(writer.intern("alice"), a);
  EXPECT_NE(writer.intern("bob"), a);
  ASSERT_TRUE(writer.finalize());
  std::remove(path.c_str());
}

TEST(RecordWriter, JobIndexMatchesFullScan) {
  const std::string path = temp_path("jobindex");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));
  // Interleave three jobs plus one decision that touches two jobs (a
  // preemption: victim in `job`, beneficiary in `other`).
  for (std::uint32_t i = 0; i < 30; ++i)
    writer.append(make_record(1000 * i, RecordType::Submit, i % 3));
  PackedRecord preempt = make_record(50'000, RecordType::DecPreempt, 0);
  preempt.other = 2;
  preempt.flags = kFlagApplied;
  writer.append(preempt);
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.jobs(), (std::vector<std::uint64_t>{0, 1, 2}));

  for (std::uint64_t job = 0; job < 3; ++job) {
    std::vector<std::int64_t> scanned;
    reader.scan_all([&](const PackedRecord& r) {
      if (r.job == job || (r.other == job && r.other != r.job))
        scanned.push_back(r.t_us);
    });
    const std::vector<PackedRecord> indexed = reader.for_job(job);
    ASSERT_EQ(indexed.size(), scanned.size()) << "job " << job;
    for (std::size_t i = 0; i < indexed.size(); ++i)
      EXPECT_EQ(indexed[i].t_us, scanned[i]);
  }
  // The preemption shows up under both jobs, once each.
  EXPECT_EQ(reader.for_job(0).back().type, RecordType::DecPreempt);
  EXPECT_EQ(reader.for_job(2).back().type, RecordType::DecPreempt);
  EXPECT_FALSE(reader.has_job(99));
  EXPECT_TRUE(reader.for_job(99).empty());
  std::remove(path.c_str());
}

TEST(RecordReader, TimeIndexScansExactRangesAcrossEmptyBuckets) {
  const std::string path = temp_path("timeindex");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));  // 1 s buckets
  // Records at t = 0s, 0.5s, 3s (buckets 1 and 2 empty), 3.2s, 10s.
  const std::vector<std::int64_t> times = {0, 500'000, 3'000'000, 3'200'000,
                                           10'000'000};
  for (std::size_t i = 0; i < times.size(); ++i)
    writer.append(make_record(times[i], RecordType::Submit,
                              static_cast<std::uint32_t>(i)));
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();

  const auto collect = [&](std::int64_t from_us, std::int64_t to_us) {
    std::vector<std::int64_t> out;
    reader.scan_range(from_us, to_us,
                      [&](const PackedRecord& r) { out.push_back(r.t_us); });
    return out;
  };
  EXPECT_EQ(collect(0, 1'000'000), (std::vector<std::int64_t>{0, 500'000}));
  // A range starting inside the empty buckets picks up from the next record.
  EXPECT_EQ(collect(1'000'000, 4'000'000),
            (std::vector<std::int64_t>{3'000'000, 3'200'000}));
  // Half-open: a record exactly at `to` is excluded.
  EXPECT_EQ(collect(0, 3'000'000), (std::vector<std::int64_t>{0, 500'000}));
  // Range past the last bucket.
  EXPECT_EQ(collect(11'000'000, 99'000'000), std::vector<std::int64_t>{});
  // Full scan sees everything in append order.
  EXPECT_EQ(reader.scan_all([](const PackedRecord&) {}), times.size());
  std::remove(path.c_str());
}

TEST(RecordWriter, OutOfOrderTimestampIsClampedNotLost) {
  const std::string path = temp_path("clamp");
  RecordWriter writer;
  ASSERT_TRUE(writer.open(path, 64, 1'000'000));
  writer.append(make_record(5'000'000, RecordType::Submit, 0));
  writer.append(make_record(1'000'000, RecordType::Start, 0));  // straggler
  ASSERT_TRUE(writer.finalize());

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  std::vector<std::int64_t> times;
  reader.scan_range(4'000'000, 6'000'000,
                    [&](const PackedRecord& r) { times.push_back(r.t_us); });
  // Both records land in the 5 s bucket; timestamps stay nondecreasing.
  EXPECT_EQ(times, (std::vector<std::int64_t>{5'000'000, 5'000'000}));
  std::remove(path.c_str());
}

TEST(RecordReader, RejectsCorruptFiles) {
  const std::string good = temp_path("good");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(good, 64));
    writer.append(make_record(0, RecordType::Submit, 0));
    ASSERT_TRUE(writer.finalize());
  }

  RecordReader missing;
  EXPECT_FALSE(missing.open(temp_path("does_not_exist")));
  EXPECT_FALSE(missing.error().empty());

  // Truncation: drop the footer.
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = temp_path("truncated");
  std::ofstream(truncated, std::ios::binary)
      << bytes.substr(0, bytes.size() - kFooterSize);
  RecordReader trunc_reader;
  EXPECT_FALSE(trunc_reader.open(truncated));
  EXPECT_FALSE(trunc_reader.error().empty());

  // Bad magic.
  const std::string bad_magic = temp_path("badmagic");
  bytes[0] = 'X';
  std::ofstream(bad_magic, std::ios::binary) << bytes;
  RecordReader magic_reader;
  EXPECT_FALSE(magic_reader.open(bad_magic));
  EXPECT_NE(magic_reader.error().find("magic"), std::string::npos)
      << magic_reader.error();

  std::remove(good.c_str());
  std::remove(truncated.c_str());
  std::remove(bad_magic.c_str());
}

/// The little-endian u64 at `offset` of `bytes`.
std::uint64_t u64_at(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             bytes[offset + i]))
         << (8 * i);
  return v;
}

TEST(RecordReader, CorruptCountsFailWithoutAllocating) {
  const std::string good = temp_path("counts_good");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(good, 64, 1'000'000));
    for (std::uint32_t i = 0; i < 12; ++i) {
      PackedRecord r = make_record(700'000 * i, RecordType::Submit, i % 4);
      r.user = writer.intern("user" + std::to_string(i % 3));
      writer.append(r);
    }
    ASSERT_TRUE(writer.finalize());
  }
  std::ifstream in(good, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::size_t footer = bytes.size() - kFooterSize;
  const std::size_t strings_off = u64_at(bytes, footer + 8);
  const std::size_t job_index_off = u64_at(bytes, footer + 16);
  const std::size_t time_index_off = u64_at(bytes, footer + 32);

  struct Case {
    const char* name;
    const char* section;  ///< must appear in the error
    std::vector<std::size_t> offsets;  ///< each gets 0xFFFFFFFF
  };
  const std::vector<Case> cases = {
      {"strings", "string table", {strings_off}},
      // The footer's job count as well, so the two counts still agree.
      {"jobs", "job index", {job_index_off, footer + 40}},
      // The first entry's count: after the u32 entry count, u64 job and
      // u64 postings start.
      {"postings", "postings", {job_index_off + 20}},
      {"buckets", "time index", {time_index_off + 8}},
  };
  for (const Case& c : cases) {
    std::string patched = bytes;
    for (const std::size_t offset : c.offsets)
      patched.replace(offset, 4, "\xff\xff\xff\xff");
    const std::string path = temp_path(std::string("counts_") + c.name);
    std::ofstream(path, std::ios::binary) << patched;
    RecordReader reader;
    EXPECT_FALSE(reader.open(path)) << c.name;
    EXPECT_NE(reader.error().find(c.section), std::string::npos)
        << c.name << ": " << reader.error();
    std::remove(path.c_str());
  }
  std::remove(good.c_str());
}

TEST(RecordReader, CorruptFirstBucketDoesNotOverflow) {
  const std::string good = temp_path("first_bucket_good");
  {
    RecordWriter writer;
    ASSERT_TRUE(writer.open(good, 64, 1'000'000));
    for (std::int64_t t = 0; t < 5; ++t)
      writer.append(make_record(t * 1'000'000, RecordType::Submit, 0));
    ASSERT_TRUE(writer.finalize());
  }
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // The time index opens with the i64 first bucket; INT64_MIN made the
  // bucket arithmetic overflow (undefined behaviour).
  const std::size_t time_index_off =
      u64_at(bytes, bytes.size() - kFooterSize + 32);
  bytes.replace(time_index_off, 8, std::string("\0\0\0\0\0\0\0\x80", 8));
  const std::string path = temp_path("first_bucket_bad");
  std::ofstream(path, std::ios::binary) << bytes;

  RecordReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  EXPECT_EQ(reader.scan_range(2'000'000, 4'000'000,
                              [](const PackedRecord&) {}),
            0u);  // the index puts 2 s far past its last bucket
  EXPECT_EQ(reader.scan_all([](const PackedRecord&) {}), 5u);
  std::remove(path.c_str());
  std::remove(good.c_str());
}

TEST(Manifest, ShardPathsAndJson) {
  EXPECT_EQ(shard_path("run.dbsr", 0), "run.dbsr");
  EXPECT_EQ(shard_path("run.dbsr", 3), "run.dbsr.rep3");

  Manifest m;
  ManifestShard a;
  a.path = "run.dbsr";
  a.records = 10;
  a.last_t_us = 99;
  ManifestShard b;
  b.path = "run.dbsr.rep1";
  b.replication = 1;
  b.records = 7;
  m.shards = {a, b};
  EXPECT_EQ(m.total_records(), 17u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("run.dbsr.rep1"), std::string::npos);
  EXPECT_NE(json.find("\"total_records\": 17"), std::string::npos);
}

TEST(RecordType, NamesAndDecisionSplit) {
  EXPECT_EQ(to_string(RecordType::Submit), "submit");
  EXPECT_EQ(to_string(RecordType::DecStartJob), "dec_start_job");
  EXPECT_FALSE(is_decision(RecordType::Cancel));
  EXPECT_TRUE(is_decision(RecordType::DecReserve));
}

}  // namespace
}  // namespace dbs::obs::rec
