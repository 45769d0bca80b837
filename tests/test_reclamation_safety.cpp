// Cross-cutting reclamation safety tests: the properties the paper's
// schemes exist to provide, exercised through real data structures.
//
//  * DEBRA actually reclaims under data structure churn, and its limbo
//    footprint stays bounded in steady state;
//  * a stalled non-quiescent thread freezes DEBRA (the motivating defect)
//    but not DEBRA+ (neutralization) -- the Figure 9 phenomenon;
//  * HP-protected traversals never observe recycled nodes;
//  * DEBRA+ neutralization fires during live BST operations and the tree
//    stays consistent;
//  * under every reclaiming scheme, ellen_bst readers see exact values for
//    keys that are never erased and never see keys that were never
//    inserted while writers churn the keys between them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ds_test_util.h"
#include "reclaim/era/reclaimer_he.h"
#include "reclaim/era/reclaimer_ibr.h"
#include "sanitizer_util.h"

namespace smr {
namespace {

using testutil::key_t;
using testutil::val_t;

TEST(ReclamationSafety, DebraLimboBoundedInSteadyState) {
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra>;
    mgr_t mgr(1, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    auto handle = mgr.register_thread();
    auto acc = mgr.access(handle);
    long long max_limbo = 0;
    for (int round = 0; round < 5000; ++round) {
        const key_t k = round % 32;
        bst.insert(acc, k, k);
        bst.erase(acc, k);
        const long long limbo =
            mgr.total_limbo_size<ds::bst_node<key_t, val_t>>() +
            mgr.total_limbo_size<ds::bst_info<key_t, val_t>>();
        if (limbo > max_limbo) max_limbo = limbo;
    }
    // Steady state: a handful of head blocks per bag per type. 10 blocks
    // is a generous bound; an unbounded leak would blow far past it.
    EXPECT_LT(max_limbo, 10LL * mgr_t::BLOCK_SIZE);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
}

TEST(ReclamationSafety, StalledThreadFreezesDebraButNotDebraPlus) {
    // The paper's motivating comparison, run as one experiment per scheme:
    // thread 1 stalls non-quiescently while thread 0 churns. DEBRA's limbo
    // grows with the churn; DEBRA+'s stays bounded.
    auto churn_with_stall = [](auto scheme_tag) -> long long {
        using scheme = decltype(scheme_tag);
        using mgr_t = testutil::bst_mgr<scheme>;
        mgr_t mgr(2, testutil::fast_config<mgr_t>());
        ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);

        std::atomic<bool> stalled{false}, release{false};
        std::thread staller([&] {
            auto handle = mgr.register_thread(1);
            mgr.access(handle).run_guarded(
                [&] {
                    stalled.store(true, std::memory_order_release);
                    while (!release.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    return true;
                },
                [] { return true; });
        });
        while (!stalled.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }

        auto handle = mgr.register_thread(0);
        auto acc = mgr.access(handle);
        long long max_limbo = 0;
        for (int round = 0; round < 4000; ++round) {
            const key_t k = round % 32;
            bst.insert(acc, k, k);
            bst.erase(acc, k);
            const long long limbo =
                mgr.template total_limbo_size<ds::bst_node<key_t, val_t>>() +
                mgr.template total_limbo_size<ds::bst_info<key_t, val_t>>();
            if (limbo > max_limbo) max_limbo = limbo;
        }
        release.store(true, std::memory_order_release);
        staller.join();
        return max_limbo;
    };

    const long long debra_max = churn_with_stall(reclaim::reclaim_debra{});
    const long long plus_max = churn_with_stall(reclaim::reclaim_debra_plus{});
    // DEBRA: every retired record of the churn is stuck in limbo (about
    // 4000 * 4 records). DEBRA+: bounded by a few blocks.
    EXPECT_GT(debra_max, 8000);
    EXPECT_LT(plus_max, 6LL * 256);
    EXPECT_LT(plus_max * 4, debra_max);
}

TEST(ReclamationSafety, DebraPlusNeutralizesDuringRealBstOperations) {
    // Workers run real BST operations while one thread repeatedly stalls
    // non-quiescently. Neutralization signals must fire, every operation
    // must still complete correctly, and the tree must stay consistent.
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_debra_plus>;
    constexpr int THREADS = 3;  // 2 workers + 1 staller
    mgr_t mgr(THREADS, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);

    std::atomic<bool> stop{false};
    std::atomic<long long> net{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(77 + static_cast<std::uint64_t>(t));
            long long mine = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(rng.next(48));
                const auto dice = rng.next(100);
                if (dice < 35) {
                    if (bst.insert(acc, k, k)) ++mine;
                } else if (dice < 70) {
                    if (bst.erase(acc, k).has_value()) --mine;
                } else {
                    // Regression: searches are non-quiescent too, and a
                    // neutralization signal during one must land in find's
                    // own run_guarded recovery, not a stale jmp environment.
                    (void)bst.contains(acc, k);
                }
            }
            net.fetch_add(mine);
        });
    }
    workers.emplace_back([&] {
        auto handle = mgr.register_thread(2);
        auto acc = mgr.access(handle);
        while (!stop.load(std::memory_order_acquire)) {
            acc.run_guarded(
                [&] {
                    // Stall long enough to be suspected.
                    const auto deadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(5);
                    while (std::chrono::steady_clock::now() < deadline &&
                           !stop.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    return true;
                },
                [] { return true; });
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();

    EXPECT_EQ(bst.size_slow(), net.load());
    EXPECT_TRUE(bst.validate_structure());
    EXPECT_GT(mgr.stats().total(stat::neutralize_signals_sent), 0u);
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
}

TEST(ReclamationSafety, HpListTraversalNeverSeesRecycledNode) {
    // Readers traverse the list while writers churn it; node keys are
    // written once at insert. A traversal observing an impossible key
    // (outside the insert range) caught recycled storage.
    using mgr_t = testutil::list_mgr<reclaim::reclaim_hp>;
    constexpr int THREADS = 4;
    constexpr key_t RANGE = 32;
    mgr_t mgr(THREADS);
    ds::harris_list<key_t, val_t, mgr_t> list(mgr);
    std::atomic<bool> stop{false};
    std::atomic<long> bad_values{0};

    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(5 + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(rng.next(RANGE));
                if (rng.chance_percent(50)) {
                    list.insert(acc, k, k * 7);
                } else {
                    list.erase(acc, k);
                }
            }
        });
    }
    for (int t = 2; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(99 + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(rng.next(RANGE));
                const auto v = list.find(acc, k);
                if (v.has_value() && *v != k * 7) bad_values.fetch_add(1);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    EXPECT_EQ(bad_values.load(), 0);
}

TEST(ReclamationSafety, HpBstOwnDescriptorSurvivesHelping) {
    // Regression: under hazard pointers, a thread's *own* published
    // descriptor can be helped to completion by others, its CLEAN word
    // overwritten, and the record retired and freed -- all while the owner
    // is still dereferencing it inside its own help call. The owner pins
    // the descriptor with a hazard pointer before publishing; this churn
    // reliably crashed (ASan heap-use-after-free) without that pin.
    using mgr_t = testutil::bst_mgr<reclaim::reclaim_hp>;
    constexpr int THREADS = 3;
    mgr_t mgr(THREADS);
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    std::atomic<bool> stop{false};
    std::atomic<long long> net{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < THREADS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(7 + static_cast<std::uint64_t>(t));
            long long mine = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = static_cast<key_t>(rng.next(512));
                if (rng.chance_percent(50)) {
                    if (bst.insert(acc, k, k)) ++mine;
                } else {
                    if (bst.erase(acc, k).has_value()) --mine;
                }
            }
            net.fetch_add(mine);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    EXPECT_EQ(bst.size_slow(), net.load());
    EXPECT_TRUE(bst.validate_structure());
    EXPECT_GT(mgr.stats().total(stat::records_pooled), 0u);
}

// ---- reader oracle: find under churn, every reclaiming scheme -------------

template <class Scheme>
class EllenBstReaderOracle : public ::testing::Test {};

// 'none' is left out: it leaks every retired record by design, which
// LeakSanitizer reports.
using ReclaimingSchemes =
    ::testing::Types<reclaim::reclaim_debra, reclaim::reclaim_ebr,
                     reclaim::reclaim_debra_plus, reclaim::reclaim_hp,
                     reclaim::reclaim_he, reclaim::reclaim_ibr>;
TYPED_TEST_SUITE(EllenBstReaderOracle, ReclaimingSchemes);

TYPED_TEST(EllenBstReaderOracle, FindSeesStableKeysAndNeverPhantoms) {
    // Key classes mod 4: 0 = stable (inserted before the churn, never
    // erased), 1 = churned by the writers, 2 = never inserted. A reader
    // that followed a recycled node would land on a wrong leaf: a stable
    // key reported absent or with a foreign value, or a phantom key found.
    // Under DEBRA+ neutralization can interrupt a reader mid-find.
    using mgr_t = testutil::bst_mgr<TypeParam>;
    constexpr int WRITERS = 2;
    constexpr int READERS = 2;
    // keys [0, 4 * QUARTERS): a small tree, like BstStress's, so a find
    // stays short next to DEBRA+'s neutralization rate under TSan.
    constexpr key_t QUARTERS = 16;
    mgr_t mgr(WRITERS + READERS, testutil::fast_config<mgr_t>());
    ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
    {
        auto handle = mgr.register_thread(0);
        auto acc = mgr.access(handle);
        // 7 is coprime to QUARTERS: every stable key once, in an order
        // that keeps the tree shallower than ascending inserts would.
        for (key_t i = 0; i < QUARTERS; ++i) {
            const key_t k = 4 * ((i * 7) % QUARTERS);
            ASSERT_TRUE(bst.insert(acc, k, k * 3));
        }
    }

    std::atomic<bool> stop{false};
    std::atomic<long long> net{0};
    std::atomic<long long> reads{0};
    std::atomic<long long> wrong_stable{0};
    std::atomic<long long> phantoms{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < WRITERS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(31 + static_cast<std::uint64_t>(t));
            long long mine = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t k = 4 * static_cast<key_t>(rng.next(QUARTERS)) + 1;
                if (rng.chance_percent(50)) {
                    if (bst.insert(acc, k, k * 3)) ++mine;
                } else {
                    if (bst.erase(acc, k).has_value()) --mine;
                }
            }
            net.fetch_add(mine);
        });
    }
    for (int t = WRITERS; t < WRITERS + READERS; ++t) {
        workers.emplace_back([&, t] {
            auto handle = mgr.register_thread(t);
            auto acc = mgr.access(handle);
            prng rng(57 + static_cast<std::uint64_t>(t));
            long long mine = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const key_t q = 4 * static_cast<key_t>(rng.next(QUARTERS));
                const auto stable = bst.find(acc, q);
                if (!stable.has_value() || *stable != q * 3) {
                    wrong_stable.fetch_add(1);
                }
                if (bst.find(acc, q + 2).has_value()) phantoms.fetch_add(1);
                mine += 2;
            }
            reads.fetch_add(mine);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();

    EXPECT_GT(reads.load(), 0);
    EXPECT_EQ(wrong_stable.load(), 0);
    EXPECT_EQ(phantoms.load(), 0);
    EXPECT_EQ(bst.size_slow(), QUARTERS + net.load());
    EXPECT_TRUE(bst.validate_structure());
}

TEST(ReclamationSafety, SchemeSwapIsOneTypeAlias) {
    // The Section-6 modularity claim, demonstrated literally: the same
    // function template runs the same structure under two schemes.
    auto run = [](auto scheme_tag) {
        using scheme = decltype(scheme_tag);
        using mgr_t = testutil::bst_mgr<scheme>;
        mgr_t mgr(1, testutil::fast_config<mgr_t>());
        ds::ellen_bst<key_t, val_t, mgr_t> bst(mgr);
        auto handle = mgr.register_thread();
        auto acc = mgr.access(handle);
        for (key_t k = 0; k < 100; ++k) bst.insert(acc, k, k);
        for (key_t k = 0; k < 100; k += 2) bst.erase(acc, k);
        return bst.size_slow();
    };
    if (!testutil::kLeakChecked) {
        // 'none' leaks every retired record by design; keep it out of
        // LeakSanitizer runs.
        EXPECT_EQ(run(reclaim::reclaim_none{}), 50);
    }
    EXPECT_EQ(run(reclaim::reclaim_debra{}), 50);
    EXPECT_EQ(run(reclaim::reclaim_ebr{}), 50);
    EXPECT_EQ(run(reclaim::reclaim_debra_plus{}), 50);
    EXPECT_EQ(run(reclaim::reclaim_hp{}), 50);
    EXPECT_EQ(run(reclaim::reclaim_he{}), 50);
    EXPECT_EQ(run(reclaim::reclaim_ibr{}), 50);
}

}  // namespace
}  // namespace smr
