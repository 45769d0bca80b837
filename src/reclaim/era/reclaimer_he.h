// reclaimer_he.h -- Hazard Eras (Ramalhete & Correia, SPAA 2017): hazard
// pointers with eras in the slots instead of addresses.
//
// Every record carries [birth_era, retire_era] in an era_record header
// (stamped by the record manager, invisible to the data structure). The
// slots are HP's announcement row (../announce_row.h) holding eras; what
// differs from HPs:
//   * protect() publishes the *current era*, re-reading it until it is
//     stable across the publish (a bounded loop with no CAS: the scheme's
//     wait-free protect). A published era e protects every record whose
//     interval contains e, so consecutive protects in the same era alias
//     one slot and cost no store and no fence at all -- the main
//     throughput win over HPs. So HE keeps an entry per protected pointer
//     (its slot and claim count) and a reference count per slot, which
//     releases the slot when its last alias goes;
//   * a scan (same scan_limbo and threshold rule as HPs) sorts every
//     published era and frees every record whose interval none hits
//     (O(log nK) per record).
//
// Applicability matches HPs: protect() runs the data structure's validation
// predicate whenever it publishes a new era, and the structures already
// restart on validation failure. The store-free alias path skips
// validation; it is memory-safe because the published era already covers
// every record allocated up to now, and (as for the epoch schemes) records
// retired before this thread's protection span are assumed unreachable to
// it -- see DESIGN.md "Known theoretical limits".
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "../../mem/block_pool.h"
#include "../../util/debug_stats.h"
#include "../../util/padded.h"
#include "../announce_row.h"
#include "../limbo_bags.h"
#include "era_core.h"

namespace smr::reclaim {

struct he_config {
    /// Advance the global era every this many retires per thread. Smaller
    /// values tighten the limbo bound; larger values make more protects hit
    /// the store-free alias path.
    int era_freq = 64;
    /// Extra slack added to the 2nK scan threshold, in records (same knob
    /// as hp_config: trades memory bound for fewer scans).
    int scan_slack_records = 512;
};

namespace detail {

class he_global {
  public:
    using config = he_config;
    /// Era slots per row chunk.
    static constexpr int K = announce_rows<std::uint64_t, ERA_NONE>::K;

    he_global(int num_threads, const config& cfg, debug_stats* stats)
        : num_threads_(num_threads), cfg_(cfg), stats_(stats),
          clock_(cfg.era_freq, stats), rows_(num_threads) {}

    void init_thread(int) noexcept {}
    void deinit_thread(int tid) noexcept { clear_all(tid); }

    template <class RotateFn, class PressureFn>
    bool leave_qstate(int, RotateFn&&, PressureFn&&) noexcept {
        return false;  // no announcements; reclamation is retire-driven
    }
    /// End of operation: release every era reservation.
    void enter_qstate(int tid) noexcept { clear_all(tid); }
    bool is_quiescent(int) const noexcept { return false; }

    /// Dedicated mid-operation bulk release (traversal restarts, guard
    /// layer); HE tracks no quiescence word, but the manager still routes
    /// bulk clears here rather than through enter_qstate.
    void clear_hazards(int tid) noexcept { clear_all(tid); }

    /// Publish-or-alias (see header comment). Only the publish path
    /// validates; a rejection makes the caller restart as under HPs.
    template <class ValidateFn>
    bool protect(int tid, const void* p, ValidateFn&& validate) {
        local& L = *locals_[tid];
        // Already protected: count the extra claim so unprotect pairs up.
        if (entry* e = L.find(p)) {
            ++e->claims;
            return true;
        }
        std::uint64_t era = clock_.current();
        // Alias path: some slot already publishes this era, so every record
        // born up to now is covered. No store, no fence.
        int slot = rows_.find(tid, era);
        if (slot < 0) {
            // Publish path: claim a free slot and store the era until it is
            // stable across the publish (bounded by concurrent advances).
            slot = rows_.claim(tid);
            std::atomic<std::uint64_t>& word = rows_.word(tid, slot);
            for (;;) {
                word.store(era, std::memory_order_seq_cst);
                const std::uint64_t now = clock_.current();
                if (now == era) break;
                era = now;
            }
            if (!validate()) {
                rows_.release(tid, slot);
                if (stats_) stats_->add(tid, stat::hp_validation_failures);
                return false;
            }
            if (static_cast<std::size_t>(slot) >= L.slot_refs.size())
                L.slot_refs.resize(static_cast<std::size_t>(slot) + 1);
        }
        L.entries.push_back({p, slot, 1});
        ++L.slot_refs[static_cast<std::size_t>(slot)];
        return true;
    }

    void unprotect(int tid, const void* p) noexcept {
        local& L = *locals_[tid];
        entry* e = L.find(p);
        if (e == nullptr || --e->claims > 0) return;
        const int slot = e->slot;
        *e = L.entries.back();
        L.entries.pop_back();
        if (--L.slot_refs[static_cast<std::size_t>(slot)] == 0)
            rows_.release(tid, slot);
    }

    bool is_protected(int tid, const void* p) const noexcept {
        return locals_[tid]->find(p) != nullptr;
    }
    /// Distinct records `tid` currently holds protected (tests).
    std::size_t live_entries(int tid) const noexcept {
        return locals_[tid]->entries.size();
    }
    /// Slot capacity across all threads, grown with the rows (tests).
    std::size_t max_hazards() const noexcept {
        return static_cast<std::size_t>(rows_.capacity());
    }

    // HE provides no crash-recovery interface (as HPs: RProtect et al. are
    // inert).
    bool rprotect(int, const void*) noexcept { return true; }
    void runprotect_all(int) noexcept {}
    bool is_rprotected(int, const void*) const noexcept { return false; }

    // ---- era stamping (called by the record manager) ---------------------

    template <class Rec>
    void stamp_birth(Rec* rec) noexcept {
        rec->birth_era = clock_.current();
        rec->retire_era = ERA_NONE;
    }
    template <class Rec>
    void stamp_retire(int tid, Rec* rec) noexcept {
        rec->retire_era = clock_.current();
        clock_.on_retire(tid);
    }

    // ---- scanner side -----------------------------------------------------

    /// Sorted snapshot of every published era; covers(rec) is a binary
    /// search for any reservation inside [birth_era, retire_era].
    class snapshot_t {
      public:
        void collect(const he_global& g) {
            eras_.clear();
            g.rows_.for_each([&](std::uint64_t e) { eras_.push_back(e); });
            std::sort(eras_.begin(), eras_.end());
        }
        template <class Rec>
        bool covers(const Rec* rec) const noexcept {
            const auto it =
                std::lower_bound(eras_.begin(), eras_.end(), rec->birth_era);
            return it != eras_.end() && *it <= rec->retire_era;
        }

      private:
        std::vector<std::uint64_t> eras_;
    };

    /// The counter each scan of this scheme bumps.
    static constexpr stat scan_stat = stat::era_scans;

    /// Same rule as HPs: twice the *current* slot capacity plus slack.
    long long scan_threshold_records() const noexcept {
        return 2 * rows_.capacity() + cfg_.scan_slack_records;
    }
    const era_clock& clock() const noexcept { return clock_; }
    int num_threads() const noexcept { return num_threads_; }

  private:
    struct entry {
        const void* p;
        int slot;
        int claims;  // protect() calls minus unprotect() calls for p
    };
    struct local {
        std::vector<entry> entries;  // grows on demand (guard_span bulk use)
        std::vector<int> slot_refs;  // entries per slot, grown with the row

        /// Searches from the newest entry: callers release what they
        /// protected recently (a hand-over-hand descent holds two entries,
        /// a windowed scan releases a node right after admitting its
        /// children), while the front holds the oldest pending frontier.
        entry* find(const void* p) noexcept {
            for (auto it = entries.rbegin(); it != entries.rend(); ++it)
                if (it->p == p) return &*it;
            return nullptr;
        }
        const entry* find(const void* p) const noexcept {
            return const_cast<local*>(this)->find(p);
        }
    };

    void clear_all(int tid) noexcept {
        local& L = *locals_[tid];
        for (const entry& e : L.entries)
            L.slot_refs[static_cast<std::size_t>(e.slot)] = 0;
        L.entries.clear();
        rows_.clear_all(tid);
    }

    const int num_threads_;
    const config cfg_;
    debug_stats* stats_;
    era_clock clock_;
    announce_rows<std::uint64_t, ERA_NONE> rows_;
    std::array<padded<local>, MAX_THREADS> locals_;
};

}  // namespace detail

struct reclaim_he {
    static constexpr const char* name = "he";
    static constexpr bool supports_crash_recovery = false;
    static constexpr bool is_fault_tolerant = true;  // limbo bounded by 2nK
    static constexpr bool quiescence_based = false;
    static constexpr bool per_access_protection = true;

    using config = he_config;
    using global_state = detail::he_global;

    /// Managed types are stored with an era header (see record_manager.h).
    template <class T>
    using stored = era_record<T>;

    template <class T, class Pool, int B = mem::DEFAULT_BLOCK_SIZE>
    using per_type = scan_limbo<T, Pool, B, global_state>;
};

}  // namespace smr::reclaim
