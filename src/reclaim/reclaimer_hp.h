// reclaimer_hp.h -- hazard pointers (Michael 2004), tuned for throughput as
// in the paper's comparison.
//
// Before dereferencing a record (or using its address as a CAS expected
// value), a thread announces it in one of its K hazard slots, issues a full
// fence, and then *validates* that the record is still safe via a
// data-structure-supplied predicate. Validation failure means the operation
// must behave as if it lost a race (typically restart) -- the paper's
// Section 3 explains why this breaks lock-free progress for structures that
// traverse retired-to-retired pointers; we reproduce the practical
// restart-on-suspicion behaviour the paper measures.
//
// Retired records collect in per-thread scan_limbo bags (limbo_bags.h, shared
// with Hazard Eras and IBR); when a bag reaches 2nK + O(B) records, the
// thread hashes all nK hazard slots into its snapshot_t (O(1) expected
// membership tests) and frees every unprotected record -- at least half the
// bag -- giving O(1) expected amortized retirement (Section 3, "Hazard
// Pointers"). The scan's partition pass is blockbag::take_unkept_blocks, the
// same one DEBRA+'s rotation uses, so reclamation still moves whole blocks.
//
// Slot bookkeeping is O(1) per protection for the patterns the data
// structures use. Each thread's slots form one flat index space over its
// chunk chain, and the owner keeps a private cursor over it (plain ints,
// never read by scanners):
//   * lo -- every slot below lo is taken, so protect() looks for a free
//     slot from lo upward, not from slot 0;
//   * hi -- every slot at or above hi is empty, so unprotect() searches
//     down from hi (releasing a recently taken slot, as guard_ptr moves
//     and the windowed range scan do, costs a few probes) and
//     enter_qstate / clear_hazards clear only the used prefix [0, hi).
// Releasing slot i lowers lo to i; releasing the top slot lowers hi past
// every empty slot below it. Hand-over-hand traversals therefore keep
// reusing the lowest slots, and the chain grows only when more than K
// protections are live at once.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <vector>

#include "../mem/block_pool.h"
#include "../mem/ptr_hashset.h"
#include "../obs/event_ring.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
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
    /// Hazard slots per chunk. The first chunk is the base budget: lists
    /// and trees need a handful (prev, cur, descriptor, helping targets);
    /// the skip list's locked window holds preds[] and succs[] across every
    /// level. Bulk owners (guard_span) can hold more than any fixed
    /// budget at once, so each thread's slot row is a *chain* of chunks
    /// grown on demand: the owner appends a fresh chunk when every slot is
    /// taken, scanners follow the chain. Chunks are never removed (slots
    /// empty out instead), so a scanner that misses a just-published chunk
    /// can only miss slots that were empty at its snapshot -- the same race
    /// as an empty slot filling after it was read, which HP scans already
    /// tolerate.
    static constexpr int K = 64;

    hp_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats) {
        total_slots_.store(static_cast<long long>(num_threads) * K,
                           std::memory_order_relaxed);
    }

    ~hp_global() {
        for (int t = 0; t < MAX_THREADS; ++t) {
            for (slot_chunk* c : rows_[t]->more) delete c;
        }
    }

    void init_thread(int) noexcept {}
    void deinit_thread(int tid) noexcept { clear_all(tid); }

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int, RotateFn&&, PressureFn&&) noexcept {
        return false;  // HPs have no epochs; nothing to do per operation
    }
    /// End of operation: every hazard pointer is released (paper Section 6:
    /// "enterQstate clears all announced HPs").
    void enter_qstate(int tid) noexcept { clear_all(tid); }
    bool is_quiescent(int) const noexcept { return false; }

    /// Dedicated mid-operation bulk release (traversal restarts, guard
    /// layer): for HPs identical to enter_qstate, but kept separate so the
    /// manager never has to announce quiescence just to drop hazards.
    void clear_hazards(int tid) noexcept { clear_all(tid); }

    /// Announce + fence + validate. On validation failure the slot is
    /// released and the caller must treat the operation as contended.
    /// The slot is the first free one at or above the owner's cursor lo;
    /// when every slot in the thread's chain is taken, the owner appends a
    /// fresh chunk (grow-on-demand: only bulk spans ever reach this).
    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        row& r = *rows_[tid];
        const int i = claim(r);
        std::atomic<const void*>& slot = slot_at(r, i);
        // seq_cst store doubles as the announcement fence (paper: "a memory
        // barrier must be issued immediately after a HP is announced").
        slot.store(p, std::memory_order_seq_cst);
        if (!validate()) [[unlikely]] {
            slot.store(nullptr, std::memory_order_release);
            freed(r, i);
            if (stats_) stats_->add(tid, stat::hp_validation_failures);
            return false;
        }
        return true;
    }

    /// Releases the newest slot holding p, searching down from the cursor
    /// hi. Unknown pointers are ignored.
    void unprotect(int tid, const void* p) noexcept {
        row& r = *rows_[tid];
        for (int i = r.hi; i-- > 0;) {
            std::atomic<const void*>& s = slot_at(r, i);
            if (s.load(std::memory_order_relaxed) == p) {
                s.store(nullptr, std::memory_order_release);
                freed(r, i);
                return;
            }
        }
    }

    bool is_protected(int tid, const void* p) const noexcept {
        for (const slot_chunk* c = &rows_[tid]->head; c != nullptr;
             c = c->next.load(std::memory_order_relaxed)) {
            for (int i = 0; i < K; ++i) {
                if (c->v[static_cast<std::size_t>(i)].load(
                        std::memory_order_relaxed) == p) {
                    return true;
                }
            }
        }
        return false;
    }

    // HP provides no crash-recovery interface (paper Section 6: RProtect /
    // RUnprotectAll do nothing, isRProtected returns false).
    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

    /// Scanner side: hash every announced slot across all threads' chains
    /// (seq_cst chain loads match the seq_cst publish -- see protect()).
    void collect_hazards(mem::ptr_hashset& out) const {
        for (int t = 0; t < num_threads_; ++t) {
            for (const slot_chunk* c = &rows_[t]->head; c != nullptr;
                 c = c->next.load(std::memory_order_seq_cst)) {
                for (int i = 0; i < K; ++i) {
                    out.insert(c->v[static_cast<std::size_t>(i)].load(
                        std::memory_order_seq_cst));
                }
            }
        }
    }

    /// Current slot capacity across all threads (grows as chunks are
    /// appended; never shrinks). Scanners size their hash set from this.
    std::size_t max_hazards() const noexcept {
        return static_cast<std::size_t>(
            total_slots_.load(std::memory_order_relaxed));
    }

    /// Hash set of every announced hazard; covers(rec) is an O(1) expected
    /// membership test.
    class snapshot_t {
      public:
        void collect(const hp_global& g) {
            // Slot chains may have grown since the last scan (guard_span);
            // re-size the set to the current capacity before collecting.
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
    /// spans grew the slot chains.
    long long scan_threshold_records() const noexcept {
        return 2 * total_slots_.load(std::memory_order_relaxed) +
               cfg_.scan_slack_records;
    }
    int num_threads() const noexcept { return num_threads_; }

  private:
    /// One chunk of a thread's hazard-slot chain. Only the owning thread
    /// appends; `next` is written once (seq_cst, see append_chunk).
    struct slot_chunk {
        // const void*: announcement slots only ever compare and hash; the
        // const_cast that used to launder retire-side pointers is gone.
        std::array<std::atomic<const void*>, K> v{};
        std::atomic<slot_chunk*> next{nullptr};
    };

    /// One thread's slots: the chain scanners walk (head + next links) and
    /// the owner's private index of it. Slot i lives in chunk i / K, where
    /// chunk 0 is head and chunk c > 0 is more[c - 1].
    struct row {
        slot_chunk head;
        // Owner-only cursor (see the header comment): slots [0, lo) are
        // taken, slots [hi, capacity) are empty.
        int lo = 0;
        int hi = 0;
        int capacity = K;
        std::vector<slot_chunk*> more;
    };

    static std::atomic<const void*>& slot_at(row& r, int i) noexcept {
        slot_chunk& c =
            i < K ? r.head : *r.more[static_cast<std::size_t>(i / K - 1)];
        return c.v[static_cast<std::size_t>(i % K)];
    }

    /// Index of the first free slot at or above lo, taken by the caller.
    /// Forced inline: it is protect()'s hot path, and a call costs more
    /// than the loop does.
    [[gnu::always_inline]] int claim(row& r) {
        int i = r.lo;
        while (i < r.hi &&
               slot_at(r, i).load(std::memory_order_relaxed) != nullptr) {
            ++i;
        }
        if (i == r.hi) {
            if (i == r.capacity) [[unlikely]] append_chunk(r);
            ++r.hi;
        }
        r.lo = i + 1;
        return i;
    }

    /// Cursor update after slot i became empty.
    static void freed(row& r, int i) noexcept {
        if (i < r.lo) r.lo = i;
        if (i + 1 == r.hi) {
            // Slots below lo are taken, so this stops at lo at the latest.
            do {
                --r.hi;
            } while (r.hi > r.lo &&
                     slot_at(r, r.hi - 1).load(std::memory_order_relaxed) ==
                         nullptr);
        }
    }

    // Cold: kept out of line so the inlined claim() stays small.
    [[gnu::noinline]] void append_chunk(row& r) {
        slot_chunk* tail = r.more.empty() ? &r.head : r.more.back();
        r.more.reserve(r.more.size() + 1);
        // Owner-only append. seq_cst publish so the standard HP scan
        // argument covers chained slots: the publish precedes the
        // announcement in the seq_cst total order, so a scan ordered after
        // a successful validation's unlink observes the chunk (and hence
        // the slot).
        slot_chunk* link = new slot_chunk;
        tail->next.store(link, std::memory_order_seq_cst);
        r.more.push_back(link);
        r.capacity += K;
        total_slots_.fetch_add(K, std::memory_order_relaxed);
    }

    void clear_all(int tid) noexcept {
        row& r = *rows_[tid];
        for (int i = 0; i < r.hi; ++i) {
            std::atomic<const void*>& s = slot_at(r, i);
            if (s.load(std::memory_order_relaxed) != nullptr)
                s.store(nullptr, std::memory_order_release);
        }
        r.lo = 0;
        r.hi = 0;
    }

    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    std::atomic<long long> total_slots_{0};
    std::array<padded<row>, MAX_THREADS> rows_{};
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
