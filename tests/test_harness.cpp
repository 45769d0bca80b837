// Tests for the benchmark harness (src/harness/workload.h): prefill,
// timed trials, the size invariant, metric harvesting, and the stalling
// straggler used by the Figure-9 memory experiment; plus the paired A/B
// protocol of the overhead scenarios (src/harness/paired_ab.h), driven by
// deterministic fake arms.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "ds_test_util.h"
#include "harness/paired_ab.h"
#include "harness/workload.h"

namespace smr {
namespace {

using testutil::key_t;
using testutil::val_t;

TEST(Harness, PrefillReachesTarget) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_none>;
    mgr_t mgr(1);
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    auto handle = mgr.register_thread();
    const long long size =
        harness::prefill_to(bst, mgr.access(handle), 1000, 500, 42);
    EXPECT_EQ(size, 500);
    EXPECT_EQ(bst.size_slow(), 500);
}

TEST(Harness, TrialRunsAndReportsThroughput) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 256;
    cfg.trial_ms = 100;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.total_ops, 0);
    EXPECT_GT(res.seconds, 0.05);
    EXPECT_GT(res.mops_per_sec(), 0.0);
    EXPECT_EQ(res.prefill_size, 128);
    EXPECT_TRUE(res.size_invariant_holds())
        << "final " << res.final_size << " expected "
        << res.expected_final_size;
    EXPECT_TRUE(bst.validate_structure());
}

TEST(Harness, OperationMixRespected) {
    using mgr_t = testutil::list_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::harris_list<key_t, val_t, mgr_t> list(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 64;
    cfg.trial_ms = 100;
    cfg.insert_pct = 25;
    cfg.delete_pct = 25;
    const auto res = harness::run_trial(list, mgr, cfg);
    const long long updates =
        res.inserts_attempted + res.deletes_attempted;
    EXPECT_GT(res.finds, 0);
    // ~50% searches; allow wide statistical slack.
    EXPECT_GT(res.finds, updates / 2);
    EXPECT_LT(res.finds, updates * 2);
    EXPECT_TRUE(res.size_invariant_holds());
}

TEST(Harness, NoPrefillOption) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_none>;
    mgr_t mgr(1);
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 1;
    cfg.prefill = false;
    cfg.trial_ms = 50;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_EQ(res.prefill_size, 0);
    EXPECT_TRUE(res.size_invariant_holds());
}

TEST(Harness, MetricsHarvested) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 64;  // heavy churn on few keys -> retires + reuse
    cfg.trial_ms = 150;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_GT(res.records_retired, 0u);
    EXPECT_GT(res.records_allocated, 0u);
    EXPECT_GT(res.epochs_advanced, 0u);
    EXPECT_TRUE(res.size_invariant_holds());
}

/// The Figure-9 scenario: one thread stalls non-quiescently; under DEBRA+
/// it is neutralized and reclamation continues. The straggler runs in both
/// modes of the trial engine: closed loop, and serve mode at rate 0.
class StallingStraggler : public testing::TestWithParam<bool> {};

TEST_P(StallingStraggler, UnderDebraPlus) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra_plus>;
    mgr_t mgr(3, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 3;
    cfg.key_range = 64;
    cfg.trial_ms = 300;
    cfg.stall_tid = 2;
    cfg.stall_ms = 20;
    cfg.serve.enabled = GetParam();
    cfg.serve.ops_per_sec = 0;
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_EQ(res.serve.ran, GetParam());
    EXPECT_TRUE(res.size_invariant_holds());
    EXPECT_GT(res.neutralize_sent, 0u);
    EXPECT_GT(res.records_pooled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Harness, StallingStraggler, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                             return info.param ? "ServeRate0" : "ClosedLoop";
                         });

TEST(Harness, StallingStragglerFreezesDebra) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(3, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 3;
    cfg.key_range = 64;
    cfg.trial_ms = 200;
    cfg.stall_tid = 2;
    cfg.stall_ms = 1000;  // stalls essentially the whole trial
    const auto res = harness::run_trial(bst, mgr, cfg);
    EXPECT_TRUE(res.size_invariant_holds());
    // Limbo retains (nearly) everything retired after the stall began.
    EXPECT_GT(res.records_retired, 0u);
    EXPECT_GT(res.limbo_records + static_cast<long long>(res.records_pooled),
              0);
}

TEST(Harness, EnvIntFallback) {
    ::unsetenv("SMR_TEST_ENV_KNOB");
    EXPECT_EQ(harness::env_int("SMR_TEST_ENV_KNOB", 7), 7);
    ::setenv("SMR_TEST_ENV_KNOB", "123", 1);
    EXPECT_EQ(harness::env_int("SMR_TEST_ENV_KNOB", 7), 123);
    ::unsetenv("SMR_TEST_ENV_KNOB");
}

TEST(Harness, RepeatedTrialsOnSameStructure) {
    using mgr_t = testutil::skip_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(2, testutil::fast_config<mgr_t>());
    ds::lazy_skiplist<key_t, val_t, mgr_t> skip(mgr);
    harness::workload_config cfg;
    cfg.num_threads = 2;
    cfg.key_range = 128;
    cfg.trial_ms = 60;
    cfg.prefill = false;  // second prefill would double-fill
    for (int i = 0; i < 3; ++i) {
        const auto res = harness::run_trial(skip, mgr, cfg);
        // Without prefill the harness baselines on the current size, so
        // the invariant holds per-trial even on a reused structure.
        EXPECT_TRUE(res.size_invariant_holds()) << "trial " << i;
        EXPECT_TRUE(skip.validate_structure());
    }
}

// ---- paired A/B protocol ---------------------------------------------------

/// Records every (test?, trial) call and answers with a fixed throughput
/// per arm and trial (trial -1 is the warm-up).
struct fake_arms {
    std::vector<double> test_rate;  // indexed by trial
    double base_rate = 100;
    double warmup_rate = 100;
    std::vector<std::pair<bool, int>> calls;

    double operator()(bool test, int trial) {
        calls.emplace_back(test, trial);
        if (trial < 0) return warmup_rate;
        return test ? test_rate[static_cast<std::size_t>(trial)] : base_rate;
    }
};

TEST(PairedAB, WarmupUnscoredAndOrderAlternates) {
    fake_arms arms;
    arms.test_rate = {90, 90, 90, 90};
    arms.warmup_rate = 1000;  // would win base_best if it were scored
    const auto r = harness::run_paired_ab(4, 50, arms);
    const std::vector<std::pair<bool, int>> expected = {
        {false, -1},                 // warm-up: base arm, once
        {true, 0},  {false, 0},      // test first on even trials
        {false, 1}, {true, 1},       // base first on odd trials
        {true, 2},  {false, 2},
        {false, 3}, {true, 3}};
    EXPECT_EQ(arms.calls, expected);
    EXPECT_EQ(r.trials, 4);
    EXPECT_DOUBLE_EQ(r.base_best, 100.0);
    EXPECT_DOUBLE_EQ(r.test_best, 90.0);
}

TEST(PairedAB, DeltaIsMedianOfPairedDeltas) {
    fake_arms arms;
    // Paired deltas 1, 10, 5, 20, 2 (% of base): median 5. Best-of-each
    // would say 1 (99 vs 100), the mean 7.6.
    arms.test_rate = {99, 90, 95, 80, 98};
    const auto r = harness::run_paired_ab(5, 2, arms);
    EXPECT_DOUBLE_EQ(r.delta_pct, 5.0);
    EXPECT_DOUBLE_EQ(r.test_best, 99.0);
    EXPECT_FALSE(r.ok);
}

TEST(PairedAB, TrialsClampedToThree) {
    for (int asked : {0, 1, 2}) {
        fake_arms arms;
        arms.test_rate = {100, 100, 100};
        const auto r = harness::run_paired_ab(asked, 2, arms);
        EXPECT_EQ(r.trials, 3) << "asked for " << asked;
        EXPECT_EQ(arms.calls.size(), 1u + 2u * 3u) << "asked for " << asked;
        EXPECT_TRUE(r.ok);
    }
}

TEST(PairedAB, VerdictFlipsExactlyAtThreshold) {
    // Base 4, test 3: every paired delta is exactly 25%.
    fake_arms arms;
    arms.base_rate = 4;
    arms.test_rate = {3, 3, 3};
    EXPECT_TRUE(harness::run_paired_ab(3, 25, arms).ok);
    EXPECT_FALSE(harness::run_paired_ab(3, 24, arms).ok);
    arms.test_rate = {2.99, 2.99, 2.99};  // just over 25%
    EXPECT_FALSE(harness::run_paired_ab(3, 25, arms).ok);
}

}  // namespace
}  // namespace smr
