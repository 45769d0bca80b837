// Tests for the hazard-pointer reclaimer (src/reclaim/reclaimer_hp.h):
// announce/validate semantics, scan-and-free with protection, slot
// lifecycle, and the amortized scan threshold. The slot cursor's
// invariants are tested for HP and HE together in test_announce_row.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_hp.h"

namespace smr {
namespace {

struct rec {
    long v;
};

using mgr_hp =
    record_manager<reclaim::reclaim_hp, alloc_malloc, pool_shared, rec>;

TEST(ReclaimHp, Traits) {
    EXPECT_STREQ(mgr_hp::scheme_name, "hp");
    EXPECT_FALSE(mgr_hp::supports_crash_recovery);
    EXPECT_TRUE(mgr_hp::is_fault_tolerant);
    EXPECT_FALSE(mgr_hp::quiescence_based);
    EXPECT_TRUE(mgr_hp::per_access_protection);
}

TEST(ReclaimHp, ProtectRunsValidation) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    bool validated = false;
    EXPECT_TRUE(mgr.protect(0, r, [&] {
        validated = true;
        return true;
    }));
    EXPECT_TRUE(validated);
    EXPECT_TRUE(mgr.is_protected(0, r));
    mgr.unprotect(0, r);
    EXPECT_FALSE(mgr.is_protected(0, r));
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, FailedValidationReleasesSlot) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* r = mgr.new_record<rec>(0);
    EXPECT_FALSE(mgr.protect(0, r, [] { return false; }));
    EXPECT_FALSE(mgr.is_protected(0, r));
    EXPECT_EQ(mgr.stats().total(stat::hp_validation_failures), 1u);
    mgr.deallocate<rec>(0, r);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, EnterQstateClearsAllSlots) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    rec* a = mgr.new_record<rec>(0);
    rec* b = mgr.new_record<rec>(0);
    mgr.protect(0, a);
    mgr.protect(0, b);
    EXPECT_TRUE(mgr.is_protected(0, a));
    EXPECT_TRUE(mgr.is_protected(0, b));
    mgr.enter_qstate(0);
    EXPECT_FALSE(mgr.is_protected(0, a));
    EXPECT_FALSE(mgr.is_protected(0, b));
    mgr.deallocate<rec>(0, a);
    mgr.deallocate<rec>(0, b);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ScanFreesUnprotectedOnly) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    // Pin one record, then retire enough to trigger a scan.
    rec* pinned = mgr.new_record<rec>(0);
    pinned->v = 777;
    mgr.protect(0, pinned);
    const long long threshold =
        mgr.global().scan_threshold_records();
    std::vector<rec*> retired;
    mgr.retire<rec>(0, pinned);  // retired but protected
    for (long long i = 0; i < threshold + mgr_hp::BLOCK_SIZE; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 1;
        mgr.retire<rec>(0, r);
        retired.push_back(r);
    }
    // The shared scan bag files HP's passes under hp_scans, not era_scans.
    EXPECT_GT(mgr.stats().total(stat::hp_scans), 0u);
    EXPECT_EQ(mgr.stats().total(stat::era_scans), 0u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
    // The protected record survived every scan with its contents intact.
    EXPECT_EQ(pinned->v, 777);
    // Drain the pool; pinned must never be handed out.
    for (int i = 0; i < 3 * mgr_hp::BLOCK_SIZE; ++i) {
        rec* r = mgr.allocate<rec>(0);
        EXPECT_NE(r, pinned);
        mgr.deallocate<rec>(0, r);
    }
    mgr.unprotect(0, pinned);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, ScanThresholdScalesWithThreads) {
    mgr_hp mgr1(1);
    mgr_hp mgr4(4);
    EXPECT_GT(mgr4.global().scan_threshold_records(),
              mgr1.global().scan_threshold_records());
    // 2nK + slack.
    EXPECT_EQ(mgr1.global().scan_threshold_records(),
              2LL * 1 * reclaim::detail::hp_global::K + 512);
}

TEST(ReclaimHp, RetireWithoutPressureDoesNotScan) {
    mgr_hp mgr(1);
    mgr.init_thread(0);
    for (int i = 0; i < 16; ++i) {
        rec* r = mgr.new_record<rec>(0);
        mgr.retire<rec>(0, r);
    }
    EXPECT_EQ(mgr.stats().total(stat::hp_scans), 0u);
    EXPECT_EQ(mgr.total_limbo_size<rec>(), 16);
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, CrossThreadProtectionHonoredDuringScan) {
    // Thread 1 protects a record; thread 0 retires it and scans. The
    // record must survive until thread 1 releases it.
    mgr_hp mgr(2);
    std::atomic<rec*> handoff{nullptr};
    std::atomic<bool> protected_flag{false};
    std::atomic<bool> release{false};
    std::atomic<bool> content_ok{true};
    // Filler the reader holds next to the target: more than K records,
    // every third released again, so its chain has two chunks and holes.
    constexpr int FILLER = reclaim::detail::hp_global::K + 40;
    std::vector<rec> filler(FILLER);
    std::vector<rec*> live_filler;

    std::thread reader([&] {
        mgr.init_thread(1);
        for (rec& f : filler) mgr.protect(1, &f);
        for (int i = 0; i < FILLER; ++i) {
            if (i % 3 == 0) {
                mgr.unprotect(1, &filler[static_cast<std::size_t>(i)]);
            } else {
                live_filler.push_back(&filler[static_cast<std::size_t>(i)]);
            }
        }
        rec* r;
        while ((r = handoff.load(std::memory_order_acquire)) == nullptr) {
            std::this_thread::yield();
        }
        mgr.protect(1, r);  // lands in a hole, not at the end of the chain
        protected_flag.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
            if (r->v != 42) {
                content_ok.store(false);
                break;
            }
            std::this_thread::yield();
        }
        mgr.unprotect(1, r);
        for (rec* f : live_filler) mgr.unprotect(1, f);
        mgr.deinit_thread(1);
    });

    mgr.init_thread(0);
    rec* target = mgr.new_record<rec>(0);
    target->v = 42;
    handoff.store(target, std::memory_order_release);
    while (!protected_flag.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }
    // The reader's slot row is a grown chain with holes; the scanner must
    // still see every live hazard in it.
    mem::ptr_hashset seen(mgr.global().max_hazards());
    mgr.global().collect_hazards(seen);
    EXPECT_TRUE(seen.contains(target));
    for (rec* r : live_filler) EXPECT_TRUE(seen.contains(r));
    // Retire the target plus enough filler to force several scans.
    mgr.retire<rec>(0, target);
    const long long threshold = mgr.global().scan_threshold_records();
    for (long long i = 0; i < 3 * threshold; ++i) {
        rec* r = mgr.new_record<rec>(0);
        r->v = 0;
        mgr.retire<rec>(0, r);
    }
    EXPECT_GE(mgr.stats().total(stat::hp_scans), 2u);
    release.store(true, std::memory_order_release);
    reader.join();
    EXPECT_TRUE(content_ok.load());
    mgr.deinit_thread(0);
}

TEST(ReclaimHp, LeaveQstateIsFree) {
    // HPs have no epochs: leave_qstate does nothing and returns false.
    mgr_hp mgr(1);
    mgr.init_thread(0);
    EXPECT_FALSE(mgr.leave_qstate(0));
    EXPECT_FALSE(mgr.is_quiescent(0));
    mgr.deinit_thread(0);
}

}  // namespace
}  // namespace smr
