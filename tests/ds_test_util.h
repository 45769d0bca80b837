// ds_test_util.h -- shared fixtures for the data structure tests: manager
// typedefs per reclamation scheme, a reference-model checker, and an HP
// scheme that counts its live hazards (protection-window tests).
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "ds/ellen_bst.h"
#include "ds/harris_list.h"
#include "ds/lazy_skiplist.h"
#include "recordmgr/record_manager.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "reclaim/reclaimer_none.h"
#include "util/prng.h"

namespace smr::testutil {

using key_t = long long;
using val_t = long long;

/// Aggressive epoch/era settings so reclamation happens within small tests.
template <class Mgr>
typename Mgr::config_t fast_config() {
    auto cfg = Mgr::default_config();
    if constexpr (requires { cfg.check_thresh; }) {
        cfg.check_thresh = 1;
        cfg.incr_thresh = 1;
    }
    if constexpr (requires { cfg.epoch.check_thresh; }) {
        cfg.epoch.check_thresh = 1;
        cfg.epoch.incr_thresh = 1;
        cfg.suspect_threshold_blocks = 1;
        cfg.scan_threshold_blocks = 1;
    }
    if constexpr (requires { cfg.era_freq; }) {
        cfg.era_freq = 2;
        cfg.scan_slack_records = 64;
    }
    return cfg;
}

// ---- per-structure manager typedefs ---------------------------------------

template <class Scheme>
using list_mgr = record_manager<Scheme, alloc_malloc, pool_shared,
                                ds::list_node<key_t, val_t>>;

template <class Scheme>
using bst_mgr =
    record_manager<Scheme, alloc_malloc, pool_shared,
                   ds::bst_node<key_t, val_t>, ds::bst_info<key_t, val_t>>;

template <class Scheme>
using skip_mgr = record_manager<Scheme, alloc_malloc, pool_shared,
                                ds::skiplist_node<key_t, val_t>>;

// ---- protection-window probes ----------------------------------------------

/// HP global state that also tracks the thread's live protections
/// (successful protects minus unprotects) and their peak. Single-threaded
/// use only.
class peak_hp_global : public reclaim::detail::hp_global {
  public:
    using hp_global::hp_global;

    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        const bool ok =
            hp_global::protect(tid, p, std::forward<ValidateFn>(validate));
        if (ok) peak = std::max(peak, ++live);
        return ok;
    }
    void unprotect(int tid, const void* p) noexcept {
        hp_global::unprotect(tid, p);
        --live;
    }

    int live = 0;
    int peak = 0;
};

struct peak_hp : reclaim::reclaim_hp {
    using global_state = peak_hp_global;
};

/// Internal-node levels from n down to its deepest leaf (single-threaded).
template <class Node>
int tree_height(const Node* n) {
    const Node* l = n->left.load(std::memory_order_relaxed);
    if (l == nullptr) return 0;
    return 1 + std::max(tree_height(l),
                        tree_height(n->right.load(std::memory_order_relaxed)));
}

/// Randomized differential test of any set implementation against
/// std::map, single-threaded, through an accessor minted from a live
/// thread_handle. Returns the number of operations checked.
template <class DS, class Acc>
long differential_test(DS& ds, Acc acc, std::uint64_t seed, int ops,
                       key_t key_range) {
    std::map<key_t, val_t> model;
    prng rng(seed);
    long checked = 0;
    for (int i = 0; i < ops; ++i) {
        const key_t k =
            static_cast<key_t>(rng.next(static_cast<std::uint64_t>(key_range)));
        const auto dice = rng.next(100);
        // The DS call runs first in each arm: the model lookup must not
        // live across it (ellen_bst operations inline a sigsetjmp, and
        // GCC's clobber analysis flags locals spanning one).
        if (dice < 40) {
            const bool got = ds.insert(acc, k, k * 3);
            const bool expect = model.emplace(k, k * 3).second;
            if (expect != got) return -i - 1;
        } else if (dice < 70) {
            const auto got = ds.erase(acc, k);
            const auto it = model.find(k);
            const std::optional<val_t> expect =
                it == model.end() ? std::nullopt
                                  : std::optional<val_t>(it->second);
            if (it != model.end()) model.erase(it);
            if (expect != got) return -i - 1;
        } else {
            const auto got = ds.find(acc, k);
            const auto it = model.find(k);
            const std::optional<val_t> expect =
                it == model.end() ? std::nullopt
                                  : std::optional<val_t>(it->second);
            if (expect != got) return -i - 1;
        }
        ++checked;
    }
    if (ds.size_slow() != static_cast<long long>(model.size())) return -ops - 1;
    return checked;
}

}  // namespace smr::testutil
