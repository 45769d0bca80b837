// announce_row.h -- the per-thread announcement rows of Hazard Pointers and
// Hazard Eras.
//
// Both schemes protect by storing one word in a slot of the calling
// thread's row, and their scans read every thread's row. Only the word
// differs: HP announces a record's address (empty: nullptr), HE an era
// (empty: ERA_NONE). Each row is a *chain* of K-slot chunks: the owner
// appends a fresh chunk when every slot is taken (only bulk guard_spans get
// there), and scanners follow the chain. Chunks are never removed (slots
// empty out instead), so a scanner that misses a just-published chunk can
// only miss slots that were empty at its snapshot -- the same race as an
// empty slot filling after it was read, which hazard scans already
// tolerate.
//
// Slot bookkeeping is O(1) per protection for the patterns the data
// structures use. Each row is one flat index space over its chain, and the
// owner keeps a private cursor over it (plain ints, never read by
// scanners):
//   * lo -- every slot below lo is taken, so claim() looks for a free slot
//     from lo upward, not from slot 0;
//   * hi -- every slot at or above hi is empty, so releases search down
//     from hi (a recently taken slot, as guard_ptr moves and the windowed
//     range scan release, costs a few probes) and clear_all() empties only
//     the used prefix [0, hi).
// Releasing slot i lowers lo to i; releasing the top slot lowers hi past
// every empty slot below it. Hand-over-hand traversals therefore keep
// reusing the lowest slots, and a row grows only when more than K
// protections are live at once.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <vector>

#include "../util/debug_stats.h"
#include "../util/padded.h"

namespace smr::reclaim::detail {

template <class W, W EMPTY>
class announce_rows {
  public:
    /// Slots per chunk. The base chunk covers lists and trees (a handful
    /// each) and the skip list's locked window (preds[], succs[] per level).
    static constexpr int K = 64;

    explicit announce_rows(int num_threads) : num_threads_(num_threads) {
        total_slots_.store(static_cast<long long>(num_threads) * K,
                           std::memory_order_relaxed);
    }
    ~announce_rows() {
        for (auto& r : rows_)
            for (chunk* c : r->more) delete c;
    }

    // ---- owner side (only thread tid calls these for its row) ----------

    /// Index of the first free slot at or above lo, taken by the caller.
    /// Forced inline: it is protect()'s hot path, and a call costs more
    /// than the loop does.
    [[gnu::always_inline]] int claim(int tid) {
        row& r = *rows_[tid];
        int i = r.lo;
        while (i < r.hi &&
               slot(r, i).load(std::memory_order_relaxed) != EMPTY) {
            ++i;
        }
        if (i == r.hi) {
            if (i == r.capacity) [[unlikely]] append_chunk(r);
            ++r.hi;
        }
        r.lo = i + 1;
        return i;
    }

    std::atomic<W>& word(int tid, int i) noexcept {
        return slot(*rows_[tid], i);
    }

    /// The newest slot of tid's row holding w (searching down from hi), or
    /// -1 when none does.
    int find(int tid, W w) const noexcept {
        const row& r = *rows_[tid];
        for (int i = r.hi; i-- > 0;)
            if (slot(r, i).load(std::memory_order_relaxed) == w) return i;
        return -1;
    }

    /// Empties the newest slot holding w (searching down from hi); an
    /// unknown w is ignored. One loop rather than find() + release(): it is
    /// HP's unprotect, and the read path measured faster in this shape.
    void release_newest(int tid, W w) noexcept {
        row& r = *rows_[tid];
        for (int i = r.hi; i-- > 0;) {
            std::atomic<W>& s = slot(r, i);
            if (s.load(std::memory_order_relaxed) == w) {
                s.store(EMPTY, std::memory_order_release);
                freed(r, i);
                return;
            }
        }
    }

    /// Empties slot i of tid's row and updates the cursor.
    void release(int tid, int i) noexcept {
        row& r = *rows_[tid];
        slot(r, i).store(EMPTY, std::memory_order_release);
        freed(r, i);
    }

    /// Empties the used prefix [0, hi) of tid's row and resets the cursor.
    void clear_all(int tid) noexcept {
        row& r = *rows_[tid];
        for (int i = 0; i < r.hi; ++i) {
            std::atomic<W>& s = slot(r, i);
            if (s.load(std::memory_order_relaxed) != EMPTY)
                s.store(EMPTY, std::memory_order_release);
        }
        r.lo = 0;
        r.hi = 0;
    }

    // ---- scanner side -------------------------------------------------

    /// Calls f(w) for every announced word in every thread's chain; the
    /// seq_cst loads match the seq_cst announcements and chunk publishes.
    template <class F>
    void for_each(F&& f) const {
        for (int t = 0; t < num_threads_; ++t) {
            for (const chunk* c = &rows_[t]->head; c != nullptr;
                 c = c->next.load(std::memory_order_seq_cst)) {
                for (const std::atomic<W>& s : c->v) {
                    const W w = s.load(std::memory_order_seq_cst);
                    if (w != EMPTY) f(w);
                }
            }
        }
    }

    /// Slots across every row: grows with the chains, never shrinks.
    long long capacity() const noexcept {
        return total_slots_.load(std::memory_order_relaxed);
    }

  private:
    /// One chunk of a row. Only the owner appends; `next` is written once
    /// (seq_cst, see append_chunk).
    struct chunk {
        chunk() {
            for (std::atomic<W>& s : v)
                s.store(EMPTY, std::memory_order_relaxed);
        }
        std::array<std::atomic<W>, K> v;
        std::atomic<chunk*> next{nullptr};
    };

    /// One thread's chain and the owner's cursor over it. Slot i lives in
    /// chunk i / K, where chunk 0 is head and chunk c > 0 is more[c - 1].
    struct row {
        chunk head;
        int lo = 0;  // slots [0, lo) are taken
        int hi = 0;  // slots [hi, capacity) are empty
        int capacity = K;
        std::vector<chunk*> more;
    };

    template <class Row>
    static auto& slot(Row& r, int i) noexcept {
        auto& c =
            i < K ? r.head : *r.more[static_cast<std::size_t>(i / K - 1)];
        return c.v[static_cast<std::size_t>(i % K)];
    }

    /// Cursor update after slot i became empty.
    static void freed(row& r, int i) noexcept {
        if (i < r.lo) r.lo = i;
        if (i + 1 == r.hi) {
            // Slots below lo are taken, so this stops at lo at the latest.
            do {
                --r.hi;
            } while (r.hi > r.lo && slot(r, r.hi - 1).load(
                                        std::memory_order_relaxed) == EMPTY);
        }
    }

    // Cold: kept out of line so the inlined claim() stays small.
    [[gnu::noinline]] void append_chunk(row& r) {
        chunk* tail = r.more.empty() ? &r.head : r.more.back();
        r.more.reserve(r.more.size() + 1);
        // Owner-only append. seq_cst publish so the hazard scan argument
        // covers chained slots: the publish precedes the announcement in
        // the seq_cst total order, so a scan ordered after a successful
        // validation's unlink observes the chunk (and hence the slot).
        chunk* link = new chunk;
        tail->next.store(link, std::memory_order_seq_cst);
        r.more.push_back(link);
        r.capacity += K;
        total_slots_.fetch_add(K, std::memory_order_relaxed);
    }

    const int num_threads_;
    std::atomic<long long> total_slots_{0};
    std::array<padded<row>, MAX_THREADS> rows_{};
};

}  // namespace smr::reclaim::detail
