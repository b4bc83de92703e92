#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "workload/swf/swf_gen.hpp"
#include "workload/swf/swf_parser.hpp"
#include "workload/swf/swf_source.hpp"

namespace dbs::wl::swf {
namespace {

// job submit wait run uprocs acpu umem rprocs rtime rmem status usr grp exe q part prec think
constexpr const char* kRecord =
    "1 10 5 100 4 -1 -1 8 200 -1 1 3 2 -1 5 -1 -1 -1\n";

TEST(SwfParser, ParsesDirectivesAndRecordFields) {
  std::istringstream in(
      "; Version: 2.2\n"
      ";  MaxJobs:  1500\n"
      "; MaxProcs: 128\n"
      "; MaxNodes: 16\n"
      "\n" +
      std::string(kRecord));
  SwfParser p(in);
  const SwfHeader& h = p.read_header();
  EXPECT_EQ(h.max_jobs, 1500);
  EXPECT_EQ(h.max_procs, 128);
  EXPECT_EQ(h.max_nodes, 16);
  ASSERT_EQ(h.directives.size(), 4u);
  EXPECT_EQ(h.directives[0].first, "Version");
  EXPECT_EQ(h.directives[0].second, "2.2");

  SwfRecord r;
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.job_number, 1);
  EXPECT_EQ(r.submit_s, 10);
  EXPECT_EQ(r.wait_s, 5);
  EXPECT_EQ(r.run_s, 100);
  EXPECT_EQ(r.used_procs, 4);
  EXPECT_EQ(r.avg_cpu_s, -1);
  EXPECT_EQ(r.req_procs, 8);
  EXPECT_EQ(r.req_time_s, 200);
  EXPECT_EQ(r.status, 1);
  EXPECT_EQ(r.user, 3);
  EXPECT_EQ(r.group, 2);
  EXPECT_EQ(r.queue, 5);
  EXPECT_EQ(r.think_time_s, -1);
  EXPECT_FALSE(p.next(r));
  EXPECT_EQ(p.records(), 1u);
  EXPECT_EQ(p.malformed(), 0u);
}

TEST(SwfParser, ReadHeaderIsIdempotentAndKeepsFirstRecord) {
  std::istringstream in("; MaxProcs: 64\n" + std::string(kRecord));
  SwfParser p(in);
  EXPECT_EQ(p.read_header().max_procs, 64);
  EXPECT_EQ(p.read_header().max_procs, 64);
  SwfRecord r;
  ASSERT_TRUE(p.next(r));  // the stashed first record is not lost
  EXPECT_EQ(r.job_number, 1);
}

TEST(SwfParser, ToleratesCrlfLineEndings) {
  std::istringstream in(
      "; MaxProcs: 64\r\n"
      "1 10 -1 100 4 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\r\n");
  SwfParser p(in);
  SwfRecord r;
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.think_time_s, -1);  // the last field is not "-1\r"
  EXPECT_EQ(p.header().max_procs, 64);
}

TEST(SwfParser, SkipPolicyCountsMalformedLines) {
  std::istringstream in(
      "garbage line\n"          // non-numeric
      "1 2 3\n" +               // truncated: 3 of 18 fields
      std::string(kRecord) +
      "2 20 -1 50 4 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1\n");  // 17 fields
  SwfParser p(in, MalformedPolicy::Skip);
  SwfRecord r;
  ASSERT_TRUE(p.next(r));
  EXPECT_EQ(r.job_number, 1);
  EXPECT_FALSE(p.next(r));
  EXPECT_EQ(p.records(), 1u);
  EXPECT_EQ(p.malformed(), 3u);
}

TEST(SwfParser, StrictPolicyThrowsWithLineNumber) {
  std::istringstream in("; MaxProcs: 4\nnot a record\n");
  SwfParser p(in, MalformedPolicy::Strict);
  SwfRecord r;
  try {
    (void)p.next(r);
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(SwfSource, MapsRecordsAndSkipsUnusable) {
  std::istringstream in(
      std::string(kRecord) +
      "2 20 -1 -1 4 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\n"   // no runtime
      "3 30 -1 50 -1 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\n"  // no size
      "4 -1 -1 50 4 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\n"   // no submit
      "5 40 -1 0 -1 -1 -1 16 30 -1 1 7 -1 -1 -1 -1 -1 -1\n");
  SwfSource src(in, {});
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.spec.name, "j1");
  EXPECT_EQ(s.spec.cores, 4);  // allocated size wins over requested 8
  EXPECT_EQ(s.at, Time::epoch() + Duration::seconds(10));
  EXPECT_EQ(s.spec.walltime, Duration::seconds(200));
  EXPECT_EQ(s.behavior.static_runtime, Duration::seconds(100));
  EXPECT_EQ(s.spec.cred.user, "u3");
  EXPECT_EQ(s.spec.cred.group, "g2");
  EXPECT_EQ(s.spec.cred.job_class, "q5");
  EXPECT_FALSE(s.behavior.evolving);

  ASSERT_TRUE(src.next(s));  // job 5: req_procs fallback, runtime floored
  EXPECT_EQ(s.spec.name, "j5");
  EXPECT_EQ(s.spec.cores, 16);
  EXPECT_EQ(s.behavior.static_runtime, Duration::seconds(1));
  EXPECT_EQ(s.spec.walltime, Duration::seconds(30));
  EXPECT_EQ(s.spec.cred.group, "");  // -1 group stays empty

  EXPECT_FALSE(src.next(s));
  EXPECT_EQ(src.yielded(), 2u);
  EXPECT_EQ(src.unusable(), 3u);
  EXPECT_EQ(src.distinct_users(), 2u);
}

TEST(SwfSource, UnknownUserGetsSyntheticName) {
  std::istringstream in(
      "1 10 -1 50 4 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  SwfSource src(in, {});
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.spec.cred.user, "u_unknown");
}

TEST(SwfSource, ClampsNonMonotonicSubmitTimes) {
  std::istringstream in(
      std::string(kRecord) +
      "2 5 -1 50 4 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\n");  // back in time
  SwfSource src(in, {});
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.at, Time::epoch() + Duration::seconds(10));  // clamped to 10
  EXPECT_EQ(src.clamped_times(), 1u);
}

TEST(SwfSource, ClampsWidthToMaxCores) {
  std::istringstream in(
      "1 0 -1 50 512 -1 -1 -1 -1 -1 1 3 2 -1 5 -1 -1 -1\n");
  SwfSourceConfig cfg;
  cfg.max_cores = 64;
  SwfSource src(in, cfg);
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.spec.cores, 64);
  EXPECT_EQ(src.clamped_cores(), 1u);
}

/// An 18-field record with the given submit, run, used-procs, requested
/// procs and requested-time tokens; the other fields are plain.
std::string record(const std::string& submit, const std::string& run,
                   const std::string& used_procs, const std::string& req_procs,
                   const std::string& req_time) {
  return "1 " + submit + " -1 " + run + " " + used_procs + " -1 -1 " +
         req_procs + " " + req_time + " -1 1 3 2 -1 5 -1 -1 -1\n";
}

/// Replays `trace` and returns the number of jobs yielded; counts the
/// unusable records into `unusable`.
std::uint64_t replay(const std::string& trace, std::uint64_t& unusable) {
  std::istringstream in(trace);
  SwfSource src(in, {});
  SubmitSpec s;
  while (src.next(s)) {
  }
  unusable = src.unusable();
  return src.yielded();
}

/// Largest submit/run/requested time, in seconds, a record may carry.
const std::int64_t kMaxSeconds =
    Duration::infinite().as_micros() / 1'000'000 - 1;

/// Nodes size_cluster picks for a trace whose header is `directives`.
std::size_t sized_nodes(const std::string& directives, std::size_t nodes,
                        CoreCount cores_per_node) {
  std::istringstream in(directives + kRecord);
  SwfSource src(in, {});
  return src.size_cluster(nodes, cores_per_node, "t.swf");
}

TEST(SwfSource, SizeClusterFromMaxProcs) {
  EXPECT_EQ(sized_nodes("; MaxProcs: 100\n", 0, 8), 13u);  // ceil(100/8)
  EXPECT_EQ(sized_nodes("", 0, 8), 16u);                  // 128 cores
  EXPECT_EQ(sized_nodes("; MaxProcs: -1\n", 0, 8), 16u);
  EXPECT_EQ(sized_nodes("; MaxProcs: 2147483647\n", 0, 1), 2147483647u);
  EXPECT_EQ(sized_nodes("; MaxProcs: 4294967304\n", 3, 8), 3u);  // --nodes

  // Jobs are clamped to the machine the call sized.
  std::istringstream in("; MaxProcs: 16\n" + record("0", "50", "512", "-1",
                                                     "-1"));
  SwfSource src(in, {});
  EXPECT_EQ(src.size_cluster(0, 8, "t.swf"), 2u);
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.spec.cores, 16);
}

TEST(SwfSource, SizeClusterRejectsMaxProcsBeyondCoreCount) {
  // 2^31 used to abort on a negative core count; 2^32 + 8 used to wrap
  // silently to an 8-core machine.
  for (const std::string value : {"2147483648", "4294967304"}) {
    std::istringstream in("; Version: 2.2\n; MaxProcs: " + value + "\n" +
                          kRecord);
    SwfSource src(in, {});
    try {
      static_cast<void>(src.size_cluster(0, 8, "big.swf"));
      ADD_FAILURE() << "MaxProcs " << value << " accepted";
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("big.swf:2:"), std::string::npos) << what;
      EXPECT_NE(what.find("MaxProcs " + value), std::string::npos) << what;
    }
  }
}

TEST(SwfSource, SubmitTimeBeyondDurationIsUnusable) {
  std::uint64_t unusable = 0;
  EXPECT_EQ(replay(record("10000000000000", "100", "4", "4", "200") +
                       record(std::to_string(kMaxSeconds + 1), "100", "4",
                              "4", "200"),
                   unusable),
            0u);
  EXPECT_EQ(unusable, 2u);
}

TEST(SwfSource, RunAndRequestedTimesBeyondDurationAreUnusable) {
  std::uint64_t unusable = 0;
  EXPECT_EQ(replay(record("10", "10000000000000", "4", "4", "200") +
                       record("10", "100", "4", "4", "10000000000000") +
                       record("10", "100", "4", "4", "1e300"),
                   unusable),
            0u);
  EXPECT_EQ(unusable, 3u);
}

TEST(SwfSource, LargestTimesStillReplay) {
  const std::string max = std::to_string(kMaxSeconds);
  std::istringstream in(record(max, max, "4", "4", max));
  SwfSource src(in, {});
  SubmitSpec s;
  ASSERT_TRUE(src.next(s));
  EXPECT_EQ(s.at, Time::epoch() + Duration::seconds(kMaxSeconds));
  EXPECT_EQ(s.spec.walltime, Duration::seconds(kMaxSeconds));
  EXPECT_LT(s.at + s.spec.walltime, Time::far_future());
}

TEST(SwfSource, ProcsBeyondCoreCountAreUnusable) {
  std::uint64_t unusable = 0;
  // 2^31 would wrap to a negative core count, 2^32 + 1 to one core.
  EXPECT_EQ(replay(record("10", "100", "2147483648", "4", "200") +
                       record("10", "100", "4294967297", "4", "200") +
                       record("10", "100", "-1", "2147483648", "200") +
                       record("10", "100", "2147483647", "4", "200"),
                   unusable),
            1u);
  EXPECT_EQ(unusable, 3u);
}

TEST(SwfSource, NonFiniteFieldIsUnusable) {
  std::uint64_t unusable = 0;
  // The wait time (field 3) is unused by the replay, but a record with a
  // non-finite or int64-overflowing field is not trusted.
  const auto with_wait = [](const std::string& wait) {
    return "1 10 " + wait + " 100 4 -1 -1 4 200 -1 1 3 2 -1 5 -1 -1 -1\n";
  };
  EXPECT_EQ(replay(with_wait("nan") + with_wait("inf") + with_wait("-inf") +
                       with_wait("99999999999999999999") + with_wait("1e300") +
                       with_wait("5.5"),
                   unusable),
            1u);
  EXPECT_EQ(unusable, 5u);
}

TEST(SwfSource, ReusedSpecMatchesFreshOne) {
  const std::string trace = std::string(kRecord) +
                            "2 20 -1 50 4 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  std::istringstream fresh_in(trace);
  std::istringstream reused_in(trace);
  SwfSource fresh_src(fresh_in, {});
  SwfSource reused_src(reused_in, {});
  SubmitSpec reused;
  // Every field a stale spec could leak into the next record.
  reused.spec.name = std::string(40, 'n');
  reused.spec.cred = {"user-with-a-long-name", "group", "account",
                      "class", "qos"};
  reused.spec.cores = 99;
  reused.spec.ppn = 3;
  reused.spec.walltime = Duration::seconds(9);
  reused.spec.exclusive_priority = true;
  reused.spec.preemptible = true;
  reused.spec.malleable_min = 2;
  reused.spec.type_tag = "Z";
  reused.behavior.evolving = true;
  reused.behavior.malleable = true;
  for (int i = 0; i < 2; ++i) {
    SubmitSpec fresh;
    ASSERT_TRUE(fresh_src.next(fresh));
    ASSERT_TRUE(reused_src.next(reused));
    EXPECT_EQ(reused.at, fresh.at);
    EXPECT_EQ(reused.spec, fresh.spec);
    EXPECT_EQ(reused.behavior, fresh.behavior);
  }
}

TEST(SwfSource, OverlayIsPureAndFractionBounded) {
  // The mark is a pure function of (seed, job number): no dependence on
  // parse order, window size or trace position.
  std::set<std::int64_t> marked;
  for (std::int64_t j = 0; j < 2000; ++j)
    if (SwfSource::overlay_marks(2014, 0.3, j)) marked.insert(j);
  // ~30% within loose bounds, deterministic for the fixed seed.
  EXPECT_GT(marked.size(), 480u);
  EXPECT_LT(marked.size(), 720u);
  for (std::int64_t j : {std::int64_t{0}, std::int64_t{17}, std::int64_t{999}})
    EXPECT_EQ(SwfSource::overlay_marks(2014, 0.3, j), marked.contains(j));
  // Different seeds give a different (still deterministic) marking.
  std::set<std::int64_t> other;
  for (std::int64_t j = 0; j < 2000; ++j)
    if (SwfSource::overlay_marks(7, 0.3, j)) other.insert(j);
  EXPECT_NE(marked, other);
  // Degenerate fractions.
  EXPECT_FALSE(SwfSource::overlay_marks(2014, 0.0, 5));
  EXPECT_TRUE(SwfSource::overlay_marks(2014, 1.0, 5));
}

TEST(SwfSource, OverlayMarksSameJobsAcrossWindowsAndReparses) {
  SwfGenParams gp;
  gp.jobs = 200;
  gp.seed = 9;
  std::ostringstream trace;
  generate_swf(trace, gp);

  const auto marked_names = [&](double fraction) {
    std::istringstream in(trace.str());
    SwfSourceConfig cfg;
    cfg.overlay_dynamic_fraction = fraction;
    SwfSource src(in, cfg);
    std::set<std::string> names;
    SubmitSpec s;
    while (src.next(s))
      if (s.behavior.evolving) names.insert(s.spec.name);
    return names;
  };
  const auto a = marked_names(0.25);
  const auto b = marked_names(0.25);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A larger fraction marks a superset under the same seed? Not required
  // by the hash construction — but determinism per fraction is.
  EXPECT_EQ(marked_names(0.0).size(), 0u);
}

TEST(SwfGen, StreamMatchesEagerWriter) {
  SwfGenParams gp;
  gp.jobs = 500;
  gp.seed = 31;
  std::ostringstream eager;
  generate_swf(eager, gp);
  SwfGenStream lazy(gp);
  std::ostringstream drained;
  drained << lazy.rdbuf();
  EXPECT_EQ(drained.str(), eager.str());
}

TEST(SwfGen, ZeroMeanInterarrivalRejected) {
  SwfGenParams gp;
  gp.jobs = 5;
  gp.mean_interarrival_s = 0;
  std::ostringstream out;
  EXPECT_THROW(generate_swf(out, gp), precondition_error);
}

TEST(SwfGen, CheckedInExcerptParsesCleanly) {
  std::ifstream in(std::string(DBS_TEST_DATA_DIR) + "/excerpt_1k.swf");
  ASSERT_TRUE(in.good()) << "missing tests/data/excerpt_1k.swf";
  SwfParser p(in, MalformedPolicy::Strict);
  EXPECT_EQ(p.read_header().max_procs, 1024);
  SwfRecord r;
  std::uint64_t n = 0;
  std::int64_t last_submit = 0;
  while (p.next(r)) {
    ++n;
    EXPECT_GE(r.submit_s, last_submit);
    last_submit = r.submit_s;
  }
  EXPECT_EQ(n, 1000u);
  EXPECT_EQ(p.malformed(), 0u);
}

}  // namespace
}  // namespace dbs::wl::swf
