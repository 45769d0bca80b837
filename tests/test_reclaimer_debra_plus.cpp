// Tests for DEBRA+ (src/reclaim/reclaimer_debra_plus.h): signal-based
// neutralization, recovery via run_op, RProtect hazard pointers sparing
// records from the rotate scan, and the bounded-limbo guarantee that makes
// the scheme fault tolerant (paper Section 5).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_debra_plus.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_dp = record_manager<reclaim::reclaim_debra_plus, alloc_malloc,
                              pool_shared, rec>;

reclaim::debra_plus_config fast_cfg() {
    reclaim::debra_plus_config c;
    c.epoch.check_thresh = 1;
    c.epoch.incr_thresh = 1;
    c.suspect_threshold_blocks = 1;
    c.scan_threshold_blocks = 1;
    return c;
}

TEST(ReclaimDebraPlus, Traits) {
    EXPECT_STREQ(mgr_dp::scheme_name, "debra+");
    EXPECT_TRUE(mgr_dp::supports_crash_recovery);
    EXPECT_TRUE(mgr_dp::is_fault_tolerant);
    EXPECT_TRUE(mgr_dp::quiescence_based);
    EXPECT_FALSE(mgr_dp::per_access_protection);
}

TEST(ReclaimDebraPlus, ReclaimsLikeDebraWhenAllQuiescent) {
    mgr_dp mgr(1, fast_cfg());
    mgr.init_thread(0);
    for (int round = 0; round < 2; ++round) {
        std::vector<rec*> batch;
        for (int i = 0; i < mgr_dp::BLOCK_SIZE; ++i) {
            batch.push_back(mgr.new_record<rec>(0));
        }
        mgr.leave_qstate(0);
        for (rec* r : batch) mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    for (int i = 0; i < 10; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, RProtectIsVisible) {
    mgr_dp mgr(1, fast_cfg());
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_FALSE(mgr.is_rprotected(0, r));
    mgr.rprotect(0, r);
    EXPECT_TRUE(mgr.is_rprotected(0, r));
    mgr.runprotect_all(0);
    EXPECT_FALSE(mgr.is_rprotected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, RProtectedRecordsSurviveRotation) {
    // The rotate scan must partition RProtected records to the front and
    // keep them; everything else in full blocks is pooled.
    mgr_dp mgr(1, fast_cfg());
    mgr.init_thread(0);
    std::vector<rec*> retired;
    for (int i = 0; i < 2 * mgr_dp::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = i;
        retired.push_back(r);
    }
    mgr.leave_qstate(0);
    for (rec* r : retired) mgr.retire<rec>(0, r);
    mgr.enter_qstate(0);
    // RProtect three of the retired records (as recovery code would).
    rec* pinned[3] = {retired[5], retired[100], retired[300]};
    for (rec* p : pinned) mgr.rprotect(0, p);
    const long pinned_vals[3] = {pinned[0]->v, pinned[1]->v, pinned[2]->v};
    for (int i = 0; i < 20; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    // Pinned records were never pooled: their contents are intact and they
    // still sit in a limbo bag.
    for (int i = 0; i < 3; ++i) EXPECT_EQ(pinned[i]->v, pinned_vals[i]);
    // Exhaust the pool: no allocation may return a pinned record.
    std::vector<rec*> drained;
    for (int i = 0; i < 3 * mgr_dp::BLOCK_SIZE; ++i) {
        drained.push_back(mgr.allocate<rec>(0));
    }
    for (rec* d : drained) {
        EXPECT_NE(d, pinned[0]);
        EXPECT_NE(d, pinned[1]);
        EXPECT_NE(d, pinned[2]);
        mgr.deallocate<rec>(0, d);
    }
    mgr.runprotect_all(0);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, OneRotationCountedPerRotateWhetherScanRunsOrDefers) {
    // Every rotate_and_reclaim rotates exactly once (one `rotations` count),
    // then either defers the RProtect scan (bag below scan_threshold_blocks)
    // or runs it (one scan_free stall per rotation).
    for (const bool defer : {true, false}) {
        SCOPED_TRACE(defer ? "scan deferred" : "scan runs");
        reclaim::debra_plus_config cfg = fast_cfg();
        if (defer) cfg.scan_threshold_blocks = 1 << 20;
        mgr_dp mgr(1, cfg);
        mgr.init_thread(0);
        std::uint64_t rotated = 0;
        for (int i = 0; i < 4 * mgr_dp::BLOCK_SIZE; ++i) {
            rec* r = mgr.new_record<rec>(0);
            if (mgr.leave_qstate(0)) ++rotated;
            mgr.retire<rec>(0, r);
            mgr.enter_qstate(0);
        }
        ASSERT_GT(rotated, 0u);
        const debug_stats& stats = mgr.stats();
        EXPECT_EQ(stats.total(stat::rotations), rotated);
        EXPECT_EQ(stats.stall_summary(stall_site::scan_free).count,
                  defer ? 0u : rotated);
        // DEBRA+ files its rotation under scan_free, never as a plain
        // rotation stall.
        EXPECT_EQ(stats.stall_summary(stall_site::rotation).count, 0u);
        if (defer) {
            EXPECT_EQ(stats.total(stat::records_pooled), 0u);
        }
        mgr.deinit_thread(0);
    }
}

TEST(ReclaimDebraPlus, NeutralizationUnblocksReclamation) {
    // Thread 1 stalls *non-quiescent*. Under DEBRA this would freeze
    // reclamation forever; DEBRA+ signals it, thread 1 longjmps to its
    // recovery path, and thread 0 reclaims.
    mgr_dp mgr(2, fast_cfg());
    std::atomic<bool> stalled{false};
    std::atomic<bool> release_stall{false};
    std::atomic<int> neutralized{0};

    std::thread stall_thread([&] {
        mgr.init_thread(1);
        mgr.run_op(
            1,
            [&](int t) {
                mgr.leave_qstate(t);
                stalled.store(true, std::memory_order_release);
                // Spin non-quiescently until neutralized (or released, if
                // the signal never comes -- that would fail the test).
                while (!release_stall.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
                mgr.enter_qstate(t);
                return true;
            },
            [&](int) {
                neutralized.fetch_add(1);
                return true;  // recovery complete
            });
        mgr.deinit_thread(1);
    });

    while (!stalled.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }

    mgr.init_thread(0);
    // Thread 0 churns retires; pressure exceeds the suspect threshold and
    // thread 1 gets neutralized. Always churn enough to fill limbo blocks
    // (reclamation moves whole blocks, and the neutralization can land
    // before the first block fills), then keep going until the signal
    // arrives.
    for (int i = 0;
         i < 4 * mgr_dp::BLOCK_SIZE ||
         (neutralized.load() == 0 && i < 64 * mgr_dp::BLOCK_SIZE);
         ++i) {
        mgr.leave_qstate(0);
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    for (int i = 0; i < 20; ++i) {
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    release_stall.store(true, std::memory_order_release);
    stall_thread.join();

    EXPECT_GE(neutralized.load(), 1);
    EXPECT_GE(mgr.stats().total(stat::neutralize_signals_sent), 1u);
    EXPECT_GE(mgr.stats().total(stat::neutralize_signals_received), 1u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, QuiescentThreadAbsorbsSignalsBenignly) {
    // A signal landing on a quiescent thread must be a no-op: no longjmp,
    // no recovery, execution continues where it was. The thread raises the
    // neutralize signal on itself while quiescent (a scanner would never
    // suspect a quiescent thread, so we deliver the signal directly).
    mgr_dp mgr(2, fast_cfg());
    std::atomic<bool> survived{false};

    std::thread quiet([&] {
        mgr.init_thread(1);
        ASSERT_TRUE(mgr.is_quiescent(1));
        for (int i = 0; i < 5; ++i) {
            pthread_kill(pthread_self(), reclaim::NEUTRALIZE_SIGNAL);
        }
        // Control flow reaches here only if the handler returned normally.
        survived.store(true, std::memory_order_release);
        mgr.deinit_thread(1);
    });
    quiet.join();
    EXPECT_TRUE(survived.load());
    EXPECT_GE(mgr.stats().total(stat::benign_signals_received), 5u);
    EXPECT_EQ(mgr.stats().total(stat::neutralize_signals_received), 0u);

    // And a quiescent sleeper never blocks reclamation (partial fault
    // tolerance carried over from DEBRA).
    mgr.init_thread(0);
    for (int round = 0; round < 4; ++round) {
        std::vector<rec*> batch;
        for (int i = 0; i < mgr_dp::BLOCK_SIZE; ++i) {
            batch.push_back(mgr.new_record<rec>(0));
        }
        mgr.leave_qstate(0);
        for (rec* r : batch) mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    for (int i = 0; i < 20; ++i) {  // n = 2: one epoch advance per 2 ops
        mgr.leave_qstate(0);
        mgr.enter_qstate(0);
    }
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, LimboStaysBoundedDespiteStalledThread) {
    // The fault-tolerance bound (paper Section 5): with a permanently
    // stalled thread, every other thread's limbo bags stay bounded because
    // neutralization keeps the epoch moving.
    mgr_dp mgr(2, fast_cfg());
    std::atomic<bool> stalled{false};
    std::atomic<bool> release_stall{false};
    std::atomic<long> times_neutralized{0};

    std::thread stall_thread([&] {
        mgr.init_thread(1);
        // Keep stalling non-quiescently, forever (until released). Each
        // neutralization jumps to recovery; the loop stalls again.
        while (!release_stall.load(std::memory_order_acquire)) {
            mgr.run_op(
                1,
                [&](int t) {
                    mgr.leave_qstate(t);
                    stalled.store(true, std::memory_order_release);
                    while (!release_stall.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    mgr.enter_qstate(t);
                    return true;
                },
                [&](int) {
                    times_neutralized.fetch_add(1);
                    return true;
                });
        }
        mgr.deinit_thread(1);
    });
    while (!stalled.load(std::memory_order_acquire)) std::this_thread::yield();

    mgr.init_thread(0);
    // Thread 1 re-enters run_op after every neutralization, and each
    // re-entry scans announcements -- so it may suspect and signal *this*
    // thread. Operations must therefore run inside run_op (the Figure-5
    // contract): allocation and retire stay in the quiescent pre/postamble.
    long long max_limbo = 0;
    for (int i = 0; i < 30 * mgr_dp::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        mgr.run_op(
            0,
            [&](int t) {
                mgr.leave_qstate(t);
                mgr.enter_qstate(t);
                return true;
            },
            [&](int) { return true; });
        mgr.retire<rec>(0, r);
        const long long limbo = mgr.total_limbo_size<rec>();
        if (limbo > max_limbo) max_limbo = limbo;
    }
    release_stall.store(true, std::memory_order_release);
    stall_thread.join();

    // O(n(c + nm)) with tiny constants here; 8 blocks is a generous cap,
    // 30 blocks' worth of retires would have accumulated without DEBRA+.
    EXPECT_LT(max_limbo, 8LL * mgr_dp::BLOCK_SIZE);
    EXPECT_GE(times_neutralized.load(), 1);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, RunOpExecutesRecoveryOnlyAfterNeutralization) {
    mgr_dp mgr(1, fast_cfg());
    mgr.init_thread(0);
    int body_runs = 0, recovery_runs = 0;
    mgr.run_op(
        0,
        [&](int) {
            ++body_runs;
            return true;
        },
        [&](int) {
            ++recovery_runs;
            return true;
        });
    EXPECT_EQ(body_runs, 1);
    EXPECT_EQ(recovery_runs, 0);
    mgr.deinit_thread(0);
}

TEST(ReclaimDebraPlus, SuspectThresholdGatesSignals) {
    // With a high suspect threshold, small retire pressure must not send
    // signals even when a thread is stalled.
    reclaim::debra_plus_config cfg = fast_cfg();
    cfg.suspect_threshold_blocks = 1000;  // effectively never
    mgr_dp mgr(2, cfg);
    std::atomic<bool> stalled{false}, release_stall{false};

    std::thread stall_thread([&] {
        mgr.init_thread(1);
        mgr.run_op(
            1,
            [&](int t) {
                mgr.leave_qstate(t);
                stalled.store(true, std::memory_order_release);
                while (!release_stall.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
                mgr.enter_qstate(t);
                return true;
            },
            [&](int) { return true; });
        mgr.deinit_thread(1);
    });
    while (!stalled.load(std::memory_order_acquire)) std::this_thread::yield();

    mgr.init_thread(0);
    for (int i = 0; i < 2 * mgr_dp::BLOCK_SIZE; ++i) {
        mgr.leave_qstate(0);
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
        mgr.enter_qstate(0);
    }
    EXPECT_EQ(mgr.stats().total(stat::neutralize_signals_sent), 0u);
    // And consequently nothing was reclaimed (thread 1 blocks the epoch).
    EXPECT_EQ(mgr.stats().total(stat::records_pooled), 0u);
    release_stall.store(true, std::memory_order_release);
    stall_thread.join();
    mgr.deinit_thread(0);
}

}  // namespace
}  // namespace smr
