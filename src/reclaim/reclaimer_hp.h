// reclaimer_hp.h -- hazard pointers (Michael 2004), tuned for throughput as
// in the paper's comparison.
//
// Before dereferencing a record (or using its address as a CAS expected
// value), a thread announces the address in its announcement row
// (announce_row.h, shared with Hazard Eras), issues a full fence, and then
// *validates* that the record is still safe via a data-structure-supplied
// predicate. Validation failure means the operation must behave as if it
// lost a race (typically restart) -- the paper's Section 3 explains why
// this breaks lock-free progress for structures that traverse
// retired-to-retired pointers; we reproduce the practical
// restart-on-suspicion behaviour the paper measures.
//
// Retired records collect in per-thread scan_limbo bags (limbo_bags.h, shared
// with Hazard Eras and IBR); when a bag reaches twice the slot capacity
// (2nK until a row grows) plus slack, the thread hashes every announced
// slot into its snapshot_t (O(1) expected membership tests) and frees every
// unprotected record -- at least half the bag -- giving O(1) expected
// amortized retirement (Section 3, "Hazard Pointers").
#pragma once

#include <atomic>

#include "../mem/block_pool.h"
#include "../mem/ptr_hashset.h"
#include "../util/debug_stats.h"
#include "announce_row.h"
#include "limbo_bags.h"

namespace smr::reclaim {

struct hp_config {
    /// Extra slack added to the 2nK scan threshold, in records. Larger
    /// values trade memory bound for fewer scans (the paper tunes HP "for
    /// high performance (instead of space efficiency)").
    int scan_slack_records = 512;
};

namespace detail {

class hp_global {
  public:
    using config = hp_config;
    /// Hazard slots per row chunk (see announce_row.h).
    static constexpr int K = announce_rows<const void*, nullptr>::K;

    hp_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats),
          rows_(num_threads) {}

    void init_thread(int) noexcept {}
    void deinit_thread(int tid) noexcept { rows_.clear_all(tid); }

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int, RotateFn&&, PressureFn&&) noexcept {
        return false;  // HPs have no epochs; nothing to do per operation
    }
    /// End of operation: every hazard pointer is released (paper Section 6:
    /// "enterQstate clears all announced HPs").
    void enter_qstate(int tid) noexcept { rows_.clear_all(tid); }
    bool is_quiescent(int) const noexcept { return false; }

    /// Dedicated mid-operation bulk release (traversal restarts, guard
    /// layer): for HPs identical to enter_qstate, but kept separate so the
    /// manager never has to announce quiescence just to drop hazards.
    void clear_hazards(int tid) noexcept { rows_.clear_all(tid); }

    /// Claim + announce + fence + validate. On validation failure the slot
    /// is released and the caller must treat the operation as contended.
    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        const int i = rows_.claim(tid);
        // seq_cst store doubles as the announcement fence (paper: "a memory
        // barrier must be issued immediately after a HP is announced").
        rows_.word(tid, i).store(p, std::memory_order_seq_cst);
        if (!validate()) [[unlikely]] {
            rows_.release(tid, i);
            if (stats_) stats_->add(tid, stat::hp_validation_failures);
            return false;
        }
        return true;
    }

    /// Releases the newest slot holding p. Unknown pointers are ignored.
    void unprotect(int tid, const void* p) noexcept {
        rows_.release_newest(tid, p);
    }

    bool is_protected(int tid, const void* p) const noexcept {
        return rows_.find(tid, p) >= 0;
    }

    // HP provides no crash-recovery interface (paper Section 6: RProtect /
    // RUnprotectAll do nothing, isRProtected returns false).
    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

    /// Scanner side: hash every announced slot across all threads' rows.
    void collect_hazards(mem::ptr_hashset& out) const {
        rows_.for_each([&](const void* p) { out.insert(p); });
    }

    /// Current slot capacity across all threads (grows as rows append
    /// chunks; never shrinks). Scanners size their hash set from this.
    std::size_t max_hazards() const noexcept {
        return static_cast<std::size_t>(rows_.capacity());
    }

    /// Hash set of every announced hazard; covers(rec) is an O(1) expected
    /// membership test.
    class snapshot_t {
      public:
        void collect(const hp_global& g) {
            // Rows may have grown since the last scan (guard_span); re-size
            // the set to the current capacity before collecting.
            set_.reserve(g.max_hazards());
            set_.clear();
            g.collect_hazards(set_);
        }
        bool covers(const void* rec) const noexcept {
            return set_.contains(rec);
        }

      private:
        mem::ptr_hashset set_{0};
    };

    /// The counter each scan of this scheme bumps.
    static constexpr stat scan_stat = stat::hp_scans;

    /// Scan when the bag reaches twice the *current* slot capacity plus
    /// slack, preserving the at-least-half-the-bag amortization even after
    /// spans grew the rows.
    long long scan_threshold_records() const noexcept {
        return 2 * rows_.capacity() + cfg_.scan_slack_records;
    }
    int num_threads() const noexcept { return num_threads_; }

  private:
    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    announce_rows<const void*, nullptr> rows_;
};

}  // namespace detail

struct reclaim_hp {
    static constexpr const char* name = "hp";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;
    static constexpr bool quiescence_based = false;
    static constexpr bool per_access_protection = true;

    using config = hp_config;
    using global_state = detail::hp_global;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = scan_limbo<T, Pool, B, global_state>;
};

}  // namespace smr::reclaim
