#include "config/maui_config.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace dbs::cfg {
namespace {

// The exact configuration of the paper's Fig. 6.
constexpr const char* kFig6 = R"(
DFSPOLICY          DFSSINGLEANDTARGETDELAY
DFSINTERVAL        06:00:00
DFSDECAY           0.4
USERCFG[user01]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
                   DFSSINGLEDELAYTIME=0
USERCFG[user02]    DFSDYNDELAYPERM=0
USERCFG[user03]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=0 \
                   DFSSINGLEDELAYTIME=00:30:00
USERCFG[user04]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=02:00:00 \
                   DFSSINGLEDELAYTIME=00:15:00
GROUPCFG[group05]  DFSTARGETDELAYTIME=04:00:00
GROUPCFG[group06]  DFSDYNDELAYPERM=0
)";

TEST(MauiConfig, ParsesFig6Exactly) {
  const ParseResult r = parse_maui_config(kFig6);
  ASSERT_TRUE(r.ok()) << r.issues.front().message;
  const core::DfsConfig& dfs = r.config.dfs;
  EXPECT_EQ(dfs.policy, core::DfsPolicy::SingleAndTargetDelay);
  EXPECT_EQ(dfs.interval, Duration::hours(6));
  EXPECT_DOUBLE_EQ(dfs.decay, 0.4);

  const auto& u1 = dfs.user.at("user01");
  EXPECT_TRUE(u1.delay_perm);
  EXPECT_EQ(u1.target_delay, Duration::seconds(3600));
  EXPECT_EQ(u1.single_delay, Duration::zero());

  EXPECT_FALSE(dfs.user.at("user02").delay_perm);
  EXPECT_EQ(dfs.user.at("user03").single_delay, Duration::minutes(30));
  EXPECT_EQ(dfs.user.at("user04").target_delay, Duration::hours(2));
  EXPECT_EQ(dfs.user.at("user04").single_delay, Duration::minutes(15));
  EXPECT_EQ(dfs.group.at("group05").target_delay, Duration::hours(4));
  EXPECT_FALSE(dfs.group.at("group06").delay_perm);
}

TEST(MauiConfig, SchedulerKnobs) {
  const auto config = parse_maui_config_or_throw(R"(
# Table II configuration
RESERVATIONDEPTH      5
RESERVATIONDELAYDEPTH 5
BACKFILL              ON
QUEUETIMEWEIGHT       1.0
XFACTORWEIGHT         0.5
RESWEIGHT             0.01
POLLINTERVAL          00:00:30
PREEMPTION            ON
MALLEABLESTEAL        ON
DYNPARTITION          8
MAXJOBSPERUSER        4
STAGETIMING           ON
ALLOCATIONPOLICY      SPREAD
)");
  EXPECT_EQ(config.reservation_depth, 5u);
  EXPECT_EQ(config.reservation_delay_depth, 5u);
  EXPECT_TRUE(config.enable_backfill);
  EXPECT_DOUBLE_EQ(config.weights.queue_time_per_minute, 1.0);
  EXPECT_DOUBLE_EQ(config.weights.xfactor, 0.5);
  EXPECT_DOUBLE_EQ(config.weights.per_core, 0.01);
  EXPECT_EQ(config.poll_interval, Duration::seconds(30));
  EXPECT_TRUE(config.allow_preemption);
  EXPECT_TRUE(config.allow_malleable_steal);
  EXPECT_EQ(config.dynamic_partition_cores, 8);
  EXPECT_EQ(config.max_eligible_per_user, 4u);
  EXPECT_TRUE(config.stage_timing);
  EXPECT_EQ(config.allocation_policy, cluster::AllocationPolicy::Spread);
}

TEST(MauiConfig, FairshareAndCredSettings) {
  const auto config = parse_maui_config_or_throw(R"(
FAIRSHARE   ON
FSINTERVAL  12:00:00
FSDEPTH     8
FSDECAY     0.5
FSWEIGHT    2.0
CREDWEIGHT  1.0
USERCFG[vip]   PRIORITY=1000 FSTARGET=30
GROUPCFG[hpc]  PRIORITY=50
CLASSCFG[debug] PRIORITY=-10
)");
  EXPECT_TRUE(config.fairshare.enabled);
  EXPECT_EQ(config.fairshare.interval, Duration::hours(12));
  EXPECT_EQ(config.fairshare.depth, 8u);
  EXPECT_DOUBLE_EQ(config.fairshare.user_targets.at("vip"), 30.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.user.at("vip"), 1000.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.group.at("hpc"), 50.0);
  EXPECT_DOUBLE_EQ(config.cred_priorities.job_class.at("debug"), -10.0);
}

TEST(MauiConfig, DefaultsViaDfsDefaultCfg) {
  const auto config = parse_maui_config_or_throw(
      "DFSPOLICY DFSTARGETDELAY\n"
      "DFSDEFAULTCFG DFSTARGETDELAYTIME=500 DFSDYNDELAYPERM=1\n");
  EXPECT_EQ(config.dfs.defaults.target_delay, Duration::seconds(500));
  EXPECT_TRUE(config.dfs.defaults.delay_perm);
}

TEST(MauiConfig, CommentsAndBlankLines) {
  const ParseResult r = parse_maui_config(
      "\n# full-line comment\nDFSDECAY 0.2  # trailing comment\n\n");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.config.dfs.decay, 0.2);
}

TEST(MauiConfig, CaseInsensitiveKeys) {
  const ParseResult r = parse_maui_config(
      "dfspolicy dfstargetdelay\nusercfg[Alice] dfsdyndelayperm=0\n");
  ASSERT_TRUE(r.ok()) << r.issues.front().message;
  EXPECT_EQ(r.config.dfs.policy, core::DfsPolicy::TargetDelay);
  // Entity names keep their original case.
  EXPECT_FALSE(r.config.dfs.user.at("Alice").delay_perm);
}

TEST(MauiConfig, IssuesReportedWithLineNumbers) {
  const ParseResult r = parse_maui_config(
      "DFSPOLICY DFSTARGETDELAY\n"
      "BOGUSKEY 42\n"
      "DFSINTERVAL notaduration\n"
      "USERCFG[u] NOT_A_PAIR\n"
      "USERCFG[ ] DFSDYNDELAYPERM=1\n"
      "MEASURETHREADS 4\n"
      "INCREMENTALPLANNING FALSE\n"
      "CHECKINVARIANTS TRUE\n");
  ASSERT_EQ(r.issues.size(), 7u);
  EXPECT_EQ(r.issues[0].line, 2);
  EXPECT_EQ(r.issues[1].line, 3);
  EXPECT_EQ(r.issues[2].line, 4);
  // A retired key is an unknown key, reported at its line.
  EXPECT_EQ(r.issues[4].line, 6);
  EXPECT_EQ(r.issues[4].message, "unknown key 'MEASURETHREADS'");
  EXPECT_EQ(r.issues[5].line, 7);
  EXPECT_EQ(r.issues[5].message, "unknown key 'INCREMENTALPLANNING'");
  EXPECT_EQ(r.issues[6].line, 8);
  EXPECT_EQ(r.issues[6].message, "unknown key 'CHECKINVARIANTS'");
  // Recognized settings before/after bad lines still applied.
  EXPECT_EQ(r.config.dfs.policy, core::DfsPolicy::TargetDelay);
}

TEST(MauiConfig, OrThrowRaisesOnIssue) {
  EXPECT_THROW((void)parse_maui_config_or_throw("BOGUS 1\n"),
               precondition_error);
}

TEST(MauiConfig, EntityUpdatesMerge) {
  const auto config = parse_maui_config_or_throw(
      "USERCFG[u] DFSTARGETDELAYTIME=100\n"
      "USERCFG[u] DFSSINGLEDELAYTIME=50\n");
  EXPECT_EQ(config.dfs.user.at("u").target_delay, Duration::seconds(100));
  EXPECT_EQ(config.dfs.user.at("u").single_delay, Duration::seconds(50));
}

TEST(MauiConfig, RenderRoundTrips) {
  const auto config = parse_maui_config_or_throw(kFig6);
  const std::string rendered = render_dfs_config(config.dfs);
  const auto reparsed = parse_maui_config_or_throw(rendered);
  EXPECT_EQ(reparsed.dfs.policy, config.dfs.policy);
  EXPECT_EQ(reparsed.dfs.interval, config.dfs.interval);
  EXPECT_EQ(reparsed.dfs.user.at("user04"), config.dfs.user.at("user04"));
  EXPECT_EQ(reparsed.dfs.group.at("group06"), config.dfs.group.at("group06"));
}

}  // namespace
}  // namespace dbs::cfg
