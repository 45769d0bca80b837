// Tests for phased schedules (harness/schedule.h) and their integration
// with run_trial: the pure phase_at lookup (cycling, boundaries), schedule
// validation, and end-to-end trials whose phases demonstrably switch the
// operation mix and the think time, in closed-loop and serve mode alike.
#include <gtest/gtest.h>

#include "ds_test_util.h"
#include "harness/schedule.h"
#include "harness/workload.h"

namespace smr {
namespace {

using harness::phase_at;
using harness::phase_spec;
using harness::schedule_cycle_ms;
using harness::schedule_valid;
using testutil::key_t;
using testutil::val_t;

TEST(Schedule, PhaseAtCyclesThroughPhases) {
    const std::vector<phase_spec> phases = {
        {"a", 50, 50, 10, 0}, {"b", 0, 0, 20, 0}, {"c", 10, 10, 5, 0}};
    EXPECT_EQ(schedule_cycle_ms(phases), 35);

    EXPECT_EQ(phase_at(phases, 0), 0);
    EXPECT_EQ(phase_at(phases, 9), 0);
    EXPECT_EQ(phase_at(phases, 10), 1);   // boundary: b starts at 10
    EXPECT_EQ(phase_at(phases, 29), 1);
    EXPECT_EQ(phase_at(phases, 30), 2);   // c starts at 30
    EXPECT_EQ(phase_at(phases, 34), 2);
    EXPECT_EQ(phase_at(phases, 35), 0);   // cycle wraps
    EXPECT_EQ(phase_at(phases, 35 + 12), 1);
    EXPECT_EQ(phase_at(phases, 35 * 100 + 31), 2);
}

TEST(Schedule, PhaseAtDegenerateInputs) {
    EXPECT_EQ(phase_at({}, 123), 0);  // empty schedule = single phase 0
    const std::vector<phase_spec> zero = {{"z", 50, 50, 0, 0}};
    EXPECT_EQ(phase_at(zero, 7), 0);  // zero-length cycle
    const std::vector<phase_spec> one = {{"o", 50, 50, 10, 0}};
    EXPECT_EQ(phase_at(one, -5), 0);  // pre-start clock
}

TEST(Schedule, ValidationRejectsBrokenPhases) {
    std::string why;
    EXPECT_TRUE(schedule_valid({}, &why));
    EXPECT_TRUE(schedule_valid({{"ok", 30, 30, 10, 0}}, &why));

    EXPECT_FALSE(schedule_valid({{"bad", 30, 30, 0, 0}}, &why));
    EXPECT_NE(why.find("duration"), std::string::npos);

    EXPECT_FALSE(schedule_valid({{"bad", 60, 60, 10, 0}}, &why));
    EXPECT_NE(why.find("mix"), std::string::npos);

    EXPECT_FALSE(schedule_valid({{"bad", -1, 30, 10, 0}}, &why));
    EXPECT_FALSE(schedule_valid({{"bad", 30, 30, 10, -1}}, &why));
    EXPECT_NE(why.find("pause_us"), std::string::npos);
}

/// End-to-end: an insert-only phase followed by a contains-only phase.
/// Phase 0 must record inserts and phase 1 must record finds but no
/// further update attempts after its transition.
TEST(Schedule, TrialTransitionsBetweenPhases) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);

    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 256;
    cfg.trial_ms = 160;
    cfg.phases = {{"load", 100, 0, 60, 0}, {"read", 0, 0, 60, 0}};

    const auto res = harness::run_trial(bst, mgr, cfg);
    ASSERT_EQ(res.phase_ops.size(), 2u);
    EXPECT_GT(res.phase_ops[0], 0) << "no ops attributed to phase 0";
    EXPECT_GT(res.phase_ops[1], 0) << "schedule never transitioned";
    EXPECT_EQ(res.phase_ops[0] + res.phase_ops[1], res.total_ops);
    // The mix switched with the phase: both insert-only and read-only
    // phases ran, so both op kinds appear and inserts dominate finds
    // only by phase-0's share.
    EXPECT_GT(res.inserts_attempted, 0);
    EXPECT_GT(res.finds, 0);
    EXPECT_EQ(res.deletes_attempted, 0);  // no phase deletes
    EXPECT_TRUE(res.size_invariant_holds());
}

/// A bursty phase (per-op think time) completes far fewer ops per ms than
/// a full-speed phase of the same length -- in both modes of the trial
/// engine: the closed loop, and serve mode at rate 0 (unpaced, with the
/// trace and streamer armed). Both must also record one phase_metrics
/// entry per phase boundary (the transition and the trial end).
class PausedPhase : public testing::TestWithParam<bool> {};

TEST_P(PausedPhase, ThrottlesThroughput) {
    using mgr_t = testutil::list_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(1, testutil::fast_config<mgr_t>());
    ds::harris_list<key_t, val_t, mgr_t> list(mgr);

    harness::workload_config cfg;
    cfg.num_threads = 1;
    cfg.key_range = 64;
    cfg.trial_ms = 120;
    cfg.phases = {{"burst", 25, 25, 60, 0}, {"quiet", 25, 25, 60, 1000}};
    cfg.serve.enabled = GetParam();
    cfg.serve.ops_per_sec = 0;

    const auto res = harness::run_trial(list, mgr, cfg);
    EXPECT_EQ(res.serve.ran, GetParam());
    ASSERT_EQ(res.phase_ops.size(), 2u);
    // 1ms of sleep per op caps the quiet phase near 60 ops; the burst
    // phase does orders of magnitude more. 10x is a safe floor.
    EXPECT_GT(res.phase_ops[0], 10 * res.phase_ops[1]);
    EXPECT_GT(res.phase_ops[1], 0);
    ASSERT_EQ(res.phase_metrics.size(), 2u);
    EXPECT_EQ(res.phase_metrics[0].phase, 0);
    EXPECT_EQ(res.phase_metrics[1].phase, 1);
    EXPECT_TRUE(res.size_invariant_holds());
}

INSTANTIATE_TEST_SUITE_P(Schedule, PausedPhase, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                             return info.param ? "ServeRate0" : "ClosedLoop";
                         });

/// Phase-less configs keep the old contract: one aggregate bucket.
/// (DEBRA, not 'none': the latter leaks retired records by design and
/// would trip LeakSanitizer when this test runs in an ASan tree.)
TEST(Schedule, PhaselessTrialHasSingleBucket) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(1, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 1;
    cfg.key_range = 128;
    cfg.trial_ms = 30;
    const auto res = harness::run_trial(bst, mgr, cfg);
    ASSERT_EQ(res.phase_ops.size(), 1u);
    EXPECT_EQ(res.phase_ops[0], res.total_ops);
}

}  // namespace
}  // namespace smr
