// trace.h -- per-thread span tracer for the smr_perf benchmark.
//
// Every call the timing adapters (timed.h) wrap is bracketed with
// begin()/end(). For every call the tracer keeps a count, total ticks and
// self ticks (duration minus the child calls it made). For a sampled subset
// of operations it also keeps the spans themselves -- {call, start, end,
// parent, op id} -- in a fixed in-memory buffer that is written out when
// the run ends.
//
// Longjmp safety (DEBRA+). A neutralization signal may siglongjmp out of
// any non-quiescent instruction, including the middle of begin() or end().
// So the tracer uses no RAII scopes inside the neutralizable body: begin()
// and end() are plain stores, ordered against the signal handler with
// signal fences, and the depth word is the last store of both (a frame is
// open once depth covers it, and closed once depth drops below it). The
// recovery path calls unwind(), which discards every frame still open
// above the operation frame and counts it as neutralized. A span recorded
// by an end() that was interrupted before it closed its frame is discarded
// too, and so is any span whose parent was discarded, so the spans that
// survive always nest.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/latency_hist.h"

namespace perf {

/// Every traced boundary. The first six are the benchmark's own frames
/// (one per operation, plus the straggler's stall); the rest are the calls
/// a layer of record_manager makes into the layer below it.
enum class call : std::uint8_t {
    ds_insert,
    ds_erase,
    ds_contains,
    ds_range_query,
    harness_stall,
    harness_sleep,
    leave_qstate,
    enter_qstate,
    protect,
    unprotect,
    retire,
    rotate,
    pool_allocate,
    pool_accept_chain,
    pool_release,
    alloc_allocate,
    COUNT
};
inline constexpr int N_CALLS = static_cast<int>(call::COUNT);

inline constexpr const char* call_names[N_CALLS] = {
    "ds.insert",         "ds.erase",           "ds.contains",
    "ds.range_query",    "harness.stall",      "harness.sleep",
    "reclaim.leave_qstate", "reclaim.enter_qstate", "reclaim.protect",
    "reclaim.unprotect", "reclaim.retire",     "reclaim.rotate",
    "pool.allocate",     "pool.accept_chain",  "pool.release",
    "alloc.allocate",
};

/// Layers are named after their module in src/ (ds/, reclaim/, pool/,
/// alloc/); `harness` is the benchmark's own straggler.
enum class layer : std::uint8_t { ds, harness, reclaim, pool, alloc, COUNT };
inline constexpr int N_LAYERS = static_cast<int>(layer::COUNT);
inline constexpr const char* layer_names[N_LAYERS] = {"ds", "harness",
                                                      "reclaim", "pool",
                                                      "alloc"};

constexpr layer layer_of(call c) noexcept {
    switch (c) {
        case call::ds_insert:
        case call::ds_erase:
        case call::ds_contains:
        case call::ds_range_query:
            return layer::ds;
        case call::harness_stall:
        case call::harness_sleep:
            return layer::harness;
        case call::pool_allocate:
        case call::pool_accept_chain:
        case call::pool_release:
            return layer::pool;
        case call::alloc_allocate:
            return layer::alloc;
        default:
            return layer::reclaim;
    }
}

inline constexpr std::uint32_t NO_PARENT = 0xffffffffu;

/// One completed span of a sampled operation. Ticks are lat_clock ticks.
struct span_rec {
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t op;
    call c;
};

class tracer {
  public:
    /// `sample_every`: keep the spans of every N-th operation.
    tracer(std::size_t span_capacity, std::uint32_t sample_every)
        : spans_(span_capacity), sample_every_(sample_every) {}

    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;

    // ---- operation frame (outside the neutralizable body) ---------------

    /// Opens the operation frame. `always_sample` keeps this op's spans
    /// regardless of the 1-in-N gate (the straggler's rare stalls).
    void op_begin(call c, bool always_sample = false) {
        ++op_seq_;
        const std::size_t n = nspans_.load(std::memory_order_relaxed);
        sampling_ = (always_sample || op_seq_ % sample_every_ == 0) &&
                    n + MIN_ROOM <= spans_.size();
        op_first_span_ = n;
        ndiscarded_ = 0;
        overflow_ = false;
        depth_.store(0, std::memory_order_relaxed);
        begin(c);
    }

    /// Closes the operation frame: anything still open above it was cut
    /// short by a neutralization that recovery completed without
    /// re-entering the body.
    void op_end() {
        unwind();
        end();
        if (sampling_) finalize_op();
    }

    // ---- layer calls (may run inside the neutralizable body) ------------

    void begin(call c) noexcept {
        const int d = depth_.load(std::memory_order_relaxed);
        frame& f = frames_[d];
        f.start = smr::lat_clock::now();
        f.child = 0;
        f.id = next_id_++;
        f.parent = d > 0 ? frames_[d - 1].id : NO_PARENT;
        f.c = c;
        std::atomic_signal_fence(std::memory_order_seq_cst);
        depth_.store(d + 1, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }

    void end() noexcept {
        const std::uint64_t now = smr::lat_clock::now();
        const int d = depth_.load(std::memory_order_relaxed) - 1;
        frame& f = frames_[d];
        const std::uint64_t dur = now - f.start;
        const auto ci = static_cast<std::size_t>(f.c);
        ++count_[ci];
        ticks_[ci] += dur;
        self_ticks_[ci] += dur - std::min(dur, f.child);
        if (d > 0) frames_[d - 1].child += dur;
        if (sampling_) {
            const std::size_t n = nspans_.load(std::memory_order_relaxed);
            if (n < spans_.size()) {
                spans_[n] = span_rec{f.start, now, f.id, f.parent, op_seq_,
                                     f.c};
                std::atomic_signal_fence(std::memory_order_seq_cst);
                nspans_.store(n + 1, std::memory_order_relaxed);
            } else {
                overflow_ = true;
            }
        }
        std::atomic_signal_fence(std::memory_order_seq_cst);
        depth_.store(d, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }

    /// Recovery path: discards every frame above the operation frame.
    void unwind() noexcept {
        int d = depth_.load(std::memory_order_relaxed);
        while (d > 1) {
            --d;
            ++neutralized_;
            if (sampling_ && ndiscarded_ < MAX_DEPTH) {
                discarded_[ndiscarded_++] = frames_[d].id;
            }
        }
        std::atomic_signal_fence(std::memory_order_seq_cst);
        depth_.store(d, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }

    void note_protect_failure() noexcept { ++protect_failures_; }

    // ---- harvest (after the thread has joined) --------------------------

    std::uint64_t count(call c) const noexcept {
        return count_[static_cast<std::size_t>(c)];
    }
    std::uint64_t ticks(call c) const noexcept {
        return ticks_[static_cast<std::size_t>(c)];
    }
    std::uint64_t self_ticks(call c) const noexcept {
        return self_ticks_[static_cast<std::size_t>(c)];
    }
    std::uint64_t protect_failures() const noexcept {
        return protect_failures_;
    }
    std::uint64_t neutralized() const noexcept { return neutralized_; }
    const span_rec* spans() const noexcept { return spans_.data(); }
    std::size_t span_count() const noexcept {
        return nspans_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr int MAX_DEPTH = 16;
    /// A sampled op needs room for its spans; a range scan under hazard
    /// pointers makes a few hundred.
    static constexpr std::size_t MIN_ROOM = 4096;

    struct frame {
        std::uint64_t start;
        std::uint64_t child;
        std::uint32_t id;
        std::uint32_t parent;
        call c;
    };

    /// Drops this op's discarded spans and, transitively, their children;
    /// drops the whole op if its spans overflowed the buffer.
    void finalize_op() {
        std::size_t n = nspans_.load(std::memory_order_relaxed);
        if (overflow_) {
            nspans_.store(op_first_span_, std::memory_order_relaxed);
            return;
        }
        if (ndiscarded_ == 0) return;
        std::vector<std::uint32_t> dead(discarded_, discarded_ + ndiscarded_);
        // Children are recorded before their parents, so one backward pass
        // over the op's spans (parents first) finds every orphan.
        for (std::size_t i = n; i-- > op_first_span_;) {
            const span_rec& s = spans_[i];
            if (std::find(dead.begin(), dead.end(), s.parent) != dead.end()) {
                dead.push_back(s.id);
            }
        }
        std::size_t w = op_first_span_;
        for (std::size_t i = op_first_span_; i < n; ++i) {
            if (std::find(dead.begin(), dead.end(), spans_[i].id) ==
                dead.end()) {
                spans_[w++] = spans_[i];
            }
        }
        nspans_.store(w, std::memory_order_relaxed);
    }

    std::vector<span_rec> spans_;
    std::atomic<std::size_t> nspans_{0};
    const std::uint32_t sample_every_;

    frame frames_[MAX_DEPTH] = {};
    std::atomic<int> depth_{0};
    std::uint32_t next_id_ = 0;
    std::uint32_t op_seq_ = 0;
    bool sampling_ = false;
    bool overflow_ = false;
    std::size_t op_first_span_ = 0;
    std::uint32_t discarded_[MAX_DEPTH] = {};
    int ndiscarded_ = 0;

    std::uint64_t count_[N_CALLS] = {};
    std::uint64_t ticks_[N_CALLS] = {};
    std::uint64_t self_ticks_[N_CALLS] = {};
    std::uint64_t protect_failures_ = 0;
    std::uint64_t neutralized_ = 0;
};

/// The calling thread's tracer; null on untraced threads (the adapters
/// then forward without timing).
inline thread_local tracer* tl_tracer = nullptr;

}  // namespace perf
