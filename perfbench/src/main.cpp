// main.cpp -- smr_perf: the benchmark of the record_manager stack.
//
// Runs one named workload against ellen_bst over record_manager (bump
// allocator + shared pool, the paper's Experiment 2) and prints one JSON
// document with every trial's raw end-to-end numbers and, in traced mode,
// the per-layer metrics. perfbench/run.py builds this binary, aggregates
// the trials and prints the result line.
//
//   smr_perf --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   smr_perf --self-test
//
// --trace 0: TRIALS untraced trials of S/TRIALS seconds each (end-to-end
//            metrics).
// --trace 1: untraced and traced trials alternate on the same seeds; the
//            traced ones instantiate record_manager with the timing
//            adapter tags of timed.h and give the per-layer metrics, the
//            pair gives trace.overhead_frac. The span trace is checked
//            (children nest in their parent, self times sum to the op
//            span) and written to FILE.
//
// Output check, every trial: each worker keeps a net key count and key
// sum; after the trial one single-threaded full-range range_query must
// reproduce prefill + net exactly, in ascending order, and the tree must
// validate. --self-test proves the check catches one dropped key.
#include <cpuid.h>
#include <sched.h>
#include <x86intrin.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ds/ellen_bst.h"
#include "reclaim/reclaimer_debra.h"
#include "reclaim/reclaimer_debra_plus.h"
#include "reclaim/reclaimer_hp.h"
#include "recordmgr/record_manager.h"
#include "timed.h"
#include "util/barrier.h"
#include "util/latency_hist.h"
#include "util/prng.h"

namespace perf {

using key_t = long long;
using node_t = smr::ds::bst_node<key_t, key_t>;
using info_t = smr::ds::bst_info<key_t, key_t>;

template <class S>
using plain_mgr =
    smr::record_manager<S, smr::alloc_bump, smr::pool_shared, node_t, info_t>;
template <class S>
using traced_mgr =
    smr::record_manager<timed_scheme<S>, timed_alloc<smr::alloc_bump>,
                        timed_pool<smr::pool_shared>, node_t, info_t>;

// ---- workloads -----------------------------------------------------------

enum class scheme_kind { debra, hp, debra_plus };

struct workload_spec {
    const char* name;
    scheme_kind scheme;
    long long key_range;
    int insert_pct, erase_pct, rq_pct;  // the rest are contains
    long long rq_len;
    /// Open loop: total offered ops/s over all workers (0 = closed loop).
    double rate_ops;
    /// Open loop: an op finishing later than this after its intended
    /// start counts as failed. Set above this host's scheduling gaps
    /// (spinning threads alone see 2-8 ms), so it flags a stalled
    /// service, not a preempted vCPU.
    double latency_limit_us;
    bool straggler;
    int stall_ms;
};

// update_churn: every op allocates or retires, so reclaim rotation, pool
// and alloc carry the work; a 10^5-key range keeps ~5 MB live.
// read_scan: the same tree read the other way -- per-access protection
// and traversal dominate; a 10^4-key range fits in L2.
// paced_straggler: the paper's headline claim -- garbage stays bounded
// while one thread stalls non-quiescent; three workers run open loop at a
// fixed rate, so drift shows in the tail and the footprint.
const workload_spec WORKLOADS[] = {
    {"update_churn", scheme_kind::debra, 100000, 50, 50, 0, 0, 0, 0, false,
     0},
    {"read_scan", scheme_kind::hp, 10000, 10, 10, 10, 100, 0, 0, false, 0},
    {"paced_straggler", scheme_kind::debra_plus, 10000, 25, 25, 0, 0,
     1.5e6, 50000, true, 5},
};

// ---- per-trial parameters and results ---------------------------------------

/// Untraced trials per --trace 0 run; (untraced, traced) pairs per
/// --trace 1 run. Medians over trials damp the host's noise.
inline constexpr int TRIALS = 10;
inline constexpr int TRACE_PAIRS = 2;
/// Closed loop: time 1 in this many ops for the latency percentiles. Open
/// loop times every op anyway (lateness), so every op is a sample.
inline constexpr std::uint32_t LAT_SAMPLE_EVERY = 16;

inline std::uint32_t lat_sample_every(const workload_spec& w) {
    return w.rate_ops > 0 ? 1 : LAT_SAMPLE_EVERY;
}
/// Keep the spans of 1 in this many ops (traced trials), up to this many
/// spans per thread.
inline constexpr std::uint32_t SPAN_SAMPLE_EVERY = 1024;
inline constexpr std::size_t SPAN_CAPACITY = std::size_t{1} << 15;

struct trial_params {
    std::uint64_t seed = 1;
    double seconds = 1;
    int threads = 4;  // hardware threads used: workers + straggler
    bool traced = false;
    /// Self-test fault: worker 0 forgets one successful insert.
    bool drop_one_insert = false;
};

/// Counters read from debug_stats, differenced across the timed window.
struct stat_snap {
    std::uint64_t retired = 0, pooled = 0, allocated = 0, epochs = 0;
    std::uint64_t restarts = 0, neutralized = 0, steals = 0, scans = 0;

    static stat_snap take(const smr::debug_stats& d) {
        stat_snap s;
        s.retired = d.total(smr::stat::records_retired);
        s.pooled = d.total(smr::stat::records_pooled);
        s.allocated = d.total(smr::stat::records_allocated);
        s.epochs = d.total(smr::stat::epochs_advanced);
        s.restarts = d.total(smr::stat::op_restarts);
        s.neutralized = d.total(smr::stat::neutralize_signals_sent);
        s.steals = d.total(smr::stat::pool_shared_steals);
        s.scans = d.stall_summary(smr::stall_site::scan_free).count;
        return s;
    }
    stat_snap operator-(const stat_snap& o) const {
        stat_snap s;
        s.retired = retired - o.retired;
        s.pooled = pooled - o.pooled;
        s.allocated = allocated - o.allocated;
        s.epochs = epochs - o.epochs;
        s.restarts = restarts - o.restarts;
        s.neutralized = neutralized - o.neutralized;
        s.steals = steals - o.steals;
        s.scans = scans - o.scans;
        return s;
    }
    void operator+=(const stat_snap& o) {
        retired += o.retired;
        pooled += o.pooled;
        allocated += o.allocated;
        epochs += o.epochs;
        restarts += o.restarts;
        neutralized += o.neutralized;
        steals += o.steals;
        scans += o.scans;
    }
};

struct worker_state {
    long long ops = 0;
    long long net_count = 0;
    long long net_sum = 0;
    long long late = 0;
    long long rqs = 0, rq_keys = 0, rq_bad = 0;
    long long backlog_max = 0;
    std::vector<std::uint32_t> lat_ns;  // sampled op latencies
    std::vector<std::uint32_t> lag_ns;  // paced: sampled start lateness
    std::unique_ptr<tracer> tr;
};

struct trial_result {
    bool traced = false;
    double setup_s = 0;
    double seconds = 0;
    long long ops = 0;
    long long late = 0;
    bool check_ok = false;
    std::string check_msg;
    std::vector<std::uint32_t> lat_ns;
    std::vector<std::uint32_t> lag_ns;
    long long footprint_bytes = 0;
    long long backlog_max = 0;
    long long rqs = 0, rq_keys = 0;
    stat_snap stats;  // timed-window deltas
    double limbo_mean = 0;
    long long limbo_max = 0;
    std::vector<std::unique_ptr<tracer>> tracers;  // traced trials only
};

inline double ns_per_tick() {
    return static_cast<double>(smr::lat_clock::to_nanos(std::uint64_t{1}
                                                        << 32)) /
           4294967296.0;
}

inline std::uint32_t clamp_u32(std::uint64_t v) {
    return v > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(v);
}

// ---- one trial -----------------------------------------------------------------

/// A manager plus a tree prefilled to half the key range; set_up() times
/// both (the setup_s metric).
template <class Mgr>
struct fixture {
    using tree_t = smr::ds::ellen_bst<key_t, key_t, Mgr>;
    std::unique_ptr<Mgr> mgr;  // declared first: the tree dies before it
    std::unique_ptr<tree_t> tree;
    long long count = 0, sum = 0;
    double setup_s = 0;
};

template <class Mgr>
fixture<Mgr> set_up(const workload_spec& w, std::uint64_t seed,
                    int nthreads) {
    fixture<Mgr> f;
    const auto s0 = std::chrono::steady_clock::now();
    f.mgr = std::make_unique<Mgr>(nthreads);
    f.tree = std::make_unique<typename fixture<Mgr>::tree_t>(*f.mgr);
    {
        auto h = f.mgr->register_thread(0);
        auto acc = f.mgr->access(h);
        smr::prng rng(seed ^ 0x5eed5eedULL);
        const auto range = static_cast<std::uint64_t>(w.key_range);
        while (f.count < w.key_range / 2) {
            const auto k = static_cast<key_t>(rng.next(range));
            if (f.tree->insert(acc, k, k)) {
                ++f.count;
                f.sum += k;
            }
        }
    }
    f.setup_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - s0)
                    .count();
    return f;
}

inline int thread_count(const workload_spec& w, const trial_params& tp) {
    const int workers =
        w.straggler ? std::max(1, tp.threads - 1) : tp.threads;
    return workers + (w.straggler ? 1 : 0);
}

template <class Mgr>
trial_result run_trial(const workload_spec& w, const trial_params& tp) {
    trial_result res;
    res.traced = tp.traced;
    const int nthreads = thread_count(w, tp);
    const int workers = nthreads - (w.straggler ? 1 : 0);

    fixture<Mgr> fx = set_up<Mgr>(w, tp.seed, nthreads);
    res.setup_s = fx.setup_s;
    auto& mgr = fx.mgr;
    auto& tree = fx.tree;
    const long long prefill_count = fx.count, prefill_sum = fx.sum;

    // -- workers --
    std::vector<worker_state> ws(static_cast<std::size_t>(nthreads));
    const double tick_ns = ns_per_tick();
    const double run_ops_guess =
        (w.rate_ops > 0 ? w.rate_ops : 4e6) * tp.seconds / workers;
    for (auto& s : ws) {
        s.lat_ns.reserve(static_cast<std::size_t>(
            run_ops_guess / lat_sample_every(w) * 1.5 + 1024));
        if (w.rate_ops > 0) s.lag_ns.reserve(s.lat_ns.capacity());
        if (tp.traced) {
            s.tr = std::make_unique<tracer>(SPAN_CAPACITY,
                                            SPAN_SAMPLE_EVERY);
        }
    }
    std::atomic<bool> start{false}, stop{false};
    std::atomic<std::uint64_t> start_tick{0};
    smr::spin_barrier ready(static_cast<std::uint32_t>(nthreads) + 1);
    const double period_ticks =
        w.rate_ops > 0 ? 1e9 / tick_ns * workers / w.rate_ops : 0;
    const auto limit_ticks =
        static_cast<std::uint64_t>(w.latency_limit_us * 1e3 / tick_ns);

    auto worker = [&](int t) {
        auto handle = mgr->register_thread(t);
        auto acc = mgr->access(handle);
        worker_state& me = ws[static_cast<std::size_t>(t)];
        tracer* tr = me.tr.get();
        tl_tracer = tr;
        smr::prng rng(tp.seed * 1000003ULL + static_cast<std::uint64_t>(t));
        bool drop_pending = tp.drop_one_insert && t == 0;
        ready.arrive_and_wait();
        while (!start.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }

        if (t == workers) {
            // Straggler: non-quiescent for stall_ms per "op", the
            // fig9_memory shape. DEBRA+ neutralizes it mid-sleep.
            while (!stop.load(std::memory_order_acquire)) {
                if (tr) tr->op_begin(call::harness_stall, true);
                acc.run_guarded(
                    [&] {
                        if (tr) tr->begin(call::harness_sleep);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(w.stall_ms));
                        if (tr) tr->end();
                        return true;
                    },
                    [] { return true; });
                if (tr) tr->op_end();
            }
            tl_tracer = nullptr;
            return;
        }

        const auto range = static_cast<std::uint64_t>(w.key_range);
        const std::uint64_t t0 = start_tick.load(std::memory_order_acquire);
        // Workers' schedules are staggered by a fraction of a period.
        const double offset = period_ticks * t / workers;
        const std::uint32_t sample_every = lat_sample_every(w);
        std::uint32_t lat_tick = 0;
        for (std::uint64_t i = 0;; ++i) {
            if (stop.load(std::memory_order_relaxed)) break;
            const key_t key = static_cast<key_t>(rng.next(range));
            const auto dice = static_cast<int>(rng.next(100));
            const bool sampled = ++lat_tick == sample_every;
            if (sampled) lat_tick = 0;

            // Open loop: wait for the op's intended start. Latency is the
            // service time from the actual start; lateness against the
            // intended start is the generator lag and, past the limit, a
            // failed op.
            std::uint64_t due = 0;
            if (period_ticks > 0) {
                due = t0 + static_cast<std::uint64_t>(offset + period_ticks * i);
                std::uint64_t now = smr::lat_clock::now();
                while (now < due && !stop.load(std::memory_order_relaxed)) {
                    _mm_pause();
                    now = smr::lat_clock::now();
                }
                if (now < due) break;  // stopped while waiting
                const auto owed = static_cast<long long>(
                    (now - t0 - offset) / period_ticks);
                me.backlog_max =
                    std::max(me.backlog_max, owed - static_cast<long long>(i));
                if (sampled) {
                    me.lag_ns.push_back(
                        clamp_u32(smr::lat_clock::to_nanos(now - due)));
                }
            }
            const bool timed = sampled || period_ticks > 0;
            const std::uint64_t began = timed ? smr::lat_clock::now() : 0;

            if (dice < w.insert_pct) {
                if (tr) tr->op_begin(call::ds_insert);
                const bool ok = tree->insert(acc, key, key);
                if (tr) tr->op_end();
                if (ok) {
                    if (drop_pending) {
                        drop_pending = false;  // self-test: forget it
                    } else {
                        ++me.net_count;
                        me.net_sum += key;
                    }
                }
            } else if (dice < w.insert_pct + w.erase_pct) {
                if (tr) tr->op_begin(call::ds_erase);
                const bool ok = tree->erase(acc, key).has_value();
                if (tr) tr->op_end();
                if (ok) {
                    --me.net_count;
                    me.net_sum -= key;
                }
            } else if (dice < w.insert_pct + w.erase_pct + w.rq_pct) {
                const key_t hi =
                    std::min<key_t>(key + w.rq_len - 1, w.key_range - 1);
                key_t prev = -1;
                long long bad = 0;
                if (tr) tr->op_begin(call::ds_range_query);
                const long long got = tree->range_query(
                    acc, key, hi, [&](const key_t& k, const key_t& v) {
                        bad += (k < key || k > hi || k <= prev || v != k);
                        prev = k;
                        return true;
                    });
                if (tr) tr->op_end();
                ++me.rqs;
                me.rq_keys += got;
                me.rq_bad += bad;
            } else {
                if (tr) tr->op_begin(call::ds_contains);
                (void)tree->contains(acc, key);
                if (tr) tr->op_end();
            }

            if (timed) {
                const std::uint64_t ended = smr::lat_clock::now();
                if (sampled) {
                    me.lat_ns.push_back(
                        clamp_u32(smr::lat_clock::to_nanos(ended - began)));
                }
                if (period_ticks > 0 && ended - due > limit_ticks) ++me.late;
            }
            ++me.ops;
        }
        tl_tracer = nullptr;
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) threads.emplace_back(worker, t);
    ready.arrive_and_wait();

    // -- timed window; the control thread samples limbo on a fixed tick --
    const stat_snap before = stat_snap::take(mgr->stats());
    // Open-loop schedules start slightly in the future so every worker is
    // spinning on its first due time when it arrives.
    start_tick.store(smr::lat_clock::now() +
                         static_cast<std::uint64_t>(1e5 / tick_ns),
                     std::memory_order_release);
    const auto w0 = std::chrono::steady_clock::now();
    start.store(true, std::memory_order_release);
    const auto deadline = w0 + std::chrono::duration<double>(tp.seconds);
    long long limbo_sum = 0, limbo_n = 0;
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const auto& d = mgr->stats();
        const long long limbo =
            static_cast<long long>(d.total(smr::stat::records_retired)) -
            static_cast<long long>(d.total(smr::stat::records_pooled));
        limbo_sum += limbo;
        ++limbo_n;
        res.limbo_max = std::max(res.limbo_max, limbo);
        if (std::chrono::steady_clock::now() >= deadline) break;
    }
    stop.store(true, std::memory_order_release);
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - w0)
                      .count();
    for (auto& th : threads) th.join();
    res.limbo_mean = static_cast<double>(limbo_sum) / limbo_n;
    res.stats = stat_snap::take(mgr->stats()) - before;
    res.footprint_bytes = mgr->total_allocated_bytes();

    // -- harvest --
    long long net_count = 0, net_sum = 0, rq_bad = 0;
    for (auto& s : ws) {
        res.ops += s.ops;
        res.late += s.late;
        res.rqs += s.rqs;
        res.rq_keys += s.rq_keys;
        rq_bad += s.rq_bad;
        net_count += s.net_count;
        net_sum += s.net_sum;
        res.backlog_max = std::max(res.backlog_max, s.backlog_max);
        res.lat_ns.insert(res.lat_ns.end(), s.lat_ns.begin(), s.lat_ns.end());
        res.lag_ns.insert(res.lag_ns.end(), s.lag_ns.begin(), s.lag_ns.end());
        if (s.tr) res.tracers.push_back(std::move(s.tr));
    }

    // -- output check: one single-threaded full-range scan --
    {
        auto h = mgr->register_thread(0);
        auto acc = mgr->access(h);
        long long count = 0, sum = 0, unordered = 0;
        key_t prev = -1;
        tree->range_query(acc, key_t{0}, w.key_range - 1,
                          [&](const key_t& k, const key_t&) {
                              unordered += k <= prev;
                              prev = k;
                              ++count;
                              sum += k;
                              return true;
                          });
        const long long want_count = prefill_count + net_count;
        const long long want_sum = prefill_sum + net_sum;
        char msg[256];
        if (unordered != 0 || rq_bad != 0 || !tree->validate_structure()) {
            std::snprintf(msg, sizeof msg,
                          "order violated: %lld unordered keys in the final "
                          "scan, %lld bad keys in range queries",
                          unordered, rq_bad);
        } else if (count != want_count || sum != want_sum) {
            std::snprintf(msg, sizeof msg,
                          "key mismatch: scan found %lld keys (sum %lld), "
                          "workers expect %lld (sum %lld)",
                          count, sum, want_count, want_sum);
        } else {
            std::snprintf(msg, sizeof msg, "ok: %lld keys, sum %lld", count,
                          sum);
            res.check_ok = true;
        }
        res.check_msg = msg;
    }
    return res;
}

// ---- percentiles -------------------------------------------------------------

struct pct {
    double value = 0;
    long long beyond = 0;  // samples strictly above the percentile's rank
    bool present = false;
};

/// Exact percentile of the sorted samples `v`. Missing when fewer than 10
/// samples lie beyond it.
inline pct percentile(const std::vector<std::uint32_t>& v, double q) {
    pct p;
    if (v.empty()) return p;
    auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
    if (rank < 1) rank = 1;
    p.value = v[rank - 1];
    p.beyond = static_cast<long long>(v.size() - rank);
    p.present = p.beyond >= 10;
    return p;
}

// ---- span check ------------------------------------------------------------------

struct span_check {
    long long ops = 0, spans = 0, violations = 0;
    std::uint64_t op_ticks = 0;                // sum of ds op spans
    std::uint64_t layer_self[N_LAYERS] = {};  // self ticks within ds ops
    std::string first_violation;
};

/// Checks every sampled op's spans: one root (the op), every other span
/// nested in its parent, siblings disjoint, and the self times summing to
/// the root span exactly.
inline void check_spans(const tracer& tr, span_check& out) {
    const span_rec* s = tr.spans();
    const std::size_t n = tr.span_count();
    std::vector<std::pair<std::uint32_t, std::size_t>> ids;
    std::vector<std::uint64_t> child;
    auto fail = [&](const char* what, const span_rec& r) {
        ++out.violations;
        if (out.first_violation.empty()) {
            out.first_violation = std::string(what) + " (" +
                                  call_names[static_cast<int>(r.c)] +
                                  ", op " + std::to_string(r.op) + ")";
        }
    };
    for (std::size_t b = 0; b < n;) {
        std::size_t e = b;
        while (e < n && s[e].op == s[b].op) ++e;
        ids.clear();
        for (std::size_t i = b; i < e; ++i) ids.emplace_back(s[i].id, i);
        std::sort(ids.begin(), ids.end());
        child.assign(e - b, 0);
        std::size_t roots = 0;
        for (std::size_t i = b; i < e; ++i) {
            const span_rec& r = s[i];
            if (r.end < r.start) fail("negative span", r);
            if (r.parent == NO_PARENT) {
                ++roots;
                continue;
            }
            auto it = std::lower_bound(
                ids.begin(), ids.end(),
                std::pair<std::uint32_t, std::size_t>{r.parent, 0});
            if (it == ids.end() || it->first != r.parent) {
                fail("orphan span", r);
                continue;
            }
            const span_rec& p = s[it->second];
            if (r.start < p.start || r.end > p.end) fail("child escapes", r);
            child[it->second - b] += r.end - r.start;
        }
        const span_rec& root = s[e - 1];
        if (roots != 1 || root.parent != NO_PARENT) {
            fail("op without a single root", root);
        }
        // Siblings in begin order (ids increase with begin) must not
        // overlap.
        for (std::size_t k = 1; k < ids.size(); ++k) {
            const span_rec& a = s[ids[k - 1].second];
            const span_rec& c = s[ids[k].second];
            if (a.parent == c.parent && c.start < a.end) {
                fail("siblings overlap", c);
            }
        }
        std::uint64_t self_sum = 0;
        std::uint64_t layer_self[N_LAYERS] = {};
        for (std::size_t i = b; i < e; ++i) {
            const std::uint64_t dur = s[i].end - s[i].start;
            if (child[i - b] > dur) {
                fail("children exceed parent", s[i]);
                continue;
            }
            self_sum += dur - child[i - b];
            layer_self[static_cast<int>(layer_of(s[i].c))] +=
                dur - child[i - b];
        }
        if (self_sum != root.end - root.start) {
            fail("self times do not sum to the op span", root);
        }
        if (layer_of(root.c) == layer::ds) {
            ++out.ops;
            out.op_ticks += root.end - root.start;
            for (int l = 0; l < N_LAYERS; ++l) {
                out.layer_self[l] += layer_self[l];
            }
        }
        out.spans += static_cast<long long>(e - b);
        b = e;
    }
}

// ---- output ------------------------------------------------------------------------

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with all their digits.
class json_obj {
  public:
    json_obj& num(const char* k, double v) {
        key(k);
        char b[64];
        std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
        s_ += b;
        return *this;
    }
    json_obj& num(const char* k, long long v) {
        key(k);
        s_ += std::to_string(v);
        return *this;
    }
    json_obj& boolean(const char* k, bool v) {
        key(k);
        s_ += v ? "true" : "false";
        return *this;
    }
    json_obj& str(const char* k, const std::string& v) {
        key(k);
        s_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\') s_ += '\\';
            s_ += (c >= 0x20) ? c : ' ';
        }
        s_ += '"';
        return *this;
    }
    json_obj& raw(const char* k, const std::string& v) {
        key(k);
        s_ += v;
        return *this;
    }
    std::string done() const { return s_ + "}"; }

  private:
    void key(const char* k) {
        s_ += s_.size() > 1 ? ",\"" : "\"";
        s_ += k;
        s_ += "\":";
    }
    std::string s_ = "{";
};

inline std::string pct_json(const pct& p) {
    return json_obj()
        .num("value", p.value)
        .num("beyond", p.beyond)
        .boolean("present", p.present)
        .done();
}

inline std::string trial_json(trial_result& r) {
    const auto samples = static_cast<long long>(r.lat_ns.size());
    std::sort(r.lat_ns.begin(), r.lat_ns.end());
    return json_obj()
        .boolean("traced", r.traced)
        .num("setup_s", r.setup_s)
        .num("seconds", r.seconds)
        .num("ops", r.ops)
        .num("late_ops", r.late)
        .boolean("check_ok", r.check_ok)
        .str("check", r.check_msg)
        .num("mops", r.ops / r.seconds / 1e6)
        .num("lat_samples", samples)
        .raw("p50_ns", pct_json(percentile(r.lat_ns, 0.50)))
        .raw("p99_ns", pct_json(percentile(r.lat_ns, 0.99)))
        .raw("p999_ns", pct_json(percentile(r.lat_ns, 0.999)))
        .num("footprint_bytes", r.footprint_bytes)
        .done();
}

struct layer_inputs {
    std::uint64_t count[N_CALLS] = {}, ticks[N_CALLS] = {},
                  self[N_CALLS] = {};
    std::uint64_t protect_failures = 0, neutralized = 0;
    stat_snap stats;
    long long ops = 0, rqs = 0, rq_keys = 0, backlog_max = 0;
    double seconds = 0, limbo_mean_sum = 0;
    long long limbo_max = 0;
    int trials = 0;
    std::vector<std::uint32_t> lag_ns;

    void add(const trial_result& r) {
        for (const auto& tr : r.tracers) {
            for (int c = 0; c < N_CALLS; ++c) {
                count[c] += tr->count(static_cast<call>(c));
                ticks[c] += tr->ticks(static_cast<call>(c));
                self[c] += tr->self_ticks(static_cast<call>(c));
            }
            protect_failures += tr->protect_failures();
            neutralized += tr->neutralized();
        }
        stats += r.stats;
        ops += r.ops;
        rqs += r.rqs;
        rq_keys += r.rq_keys;
        backlog_max = std::max(backlog_max, r.backlog_max);
        seconds += r.seconds;
        limbo_mean_sum += r.limbo_mean;
        limbo_max = std::max(limbo_max, r.limbo_max);
        ++trials;
        lag_ns.insert(lag_ns.end(), r.lag_ns.begin(), r.lag_ns.end());
    }
};

inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

inline double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : (v[(n - 1) / 2] + v[n / 2]) / 2;
}

/// The per-layer metrics, named as in BENCHMARK.json's per_layer list.
inline std::string layer_json(layer_inputs& in, double overhead_frac) {
    const double tns = ns_per_tick();
    auto mean_ns = [&](call c) {
        const auto i = static_cast<int>(c);
        return ratio(in.ticks[i] * tns, static_cast<double>(in.count[i]));
    };
    auto sum_over = [&](const std::uint64_t* a, std::initializer_list<call> cs) {
        double v = 0;
        for (call c : cs) v += static_cast<double>(a[static_cast<int>(c)]);
        return v;
    };
    const auto ds_calls = {call::ds_insert, call::ds_erase, call::ds_contains,
                           call::ds_range_query};
    const auto reclaim_calls = {call::leave_qstate, call::enter_qstate,
                                call::protect,      call::unprotect,
                                call::retire,       call::rotate};
    const double ops = static_cast<double>(in.ops);
    const double ds_ticks = sum_over(in.ticks, ds_calls);
    const double protects =
        static_cast<double>(in.count[static_cast<int>(call::protect)]);
    const double returns_ticks =
        sum_over(in.ticks, {call::pool_accept_chain, call::pool_release});
    const double returns_count =
        sum_over(in.count, {call::pool_accept_chain, call::pool_release});
    const double pool_allocs =
        static_cast<double>(in.count[static_cast<int>(call::pool_allocate)]);
    const double alloc_allocs =
        static_cast<double>(in.count[static_cast<int>(call::alloc_allocate)]);
    std::sort(in.lag_ns.begin(), in.lag_ns.end());
    const pct lag99 = percentile(in.lag_ns, 0.99);
    return json_obj()
        .num("ds.insert_ns", mean_ns(call::ds_insert))
        .num("ds.erase_ns", mean_ns(call::ds_erase))
        .num("ds.contains_ns", mean_ns(call::ds_contains))
        .num("ds.range_query_ns", mean_ns(call::ds_range_query))
        .num("ds.self_ns_per_op", ratio(sum_over(in.self, ds_calls) * tns, ops))
        .num("ds.restarts_per_kop", ratio(in.stats.restarts * 1e3, ops))
        .num("ds.rq_keys_per_query",
             ratio(static_cast<double>(in.rq_keys), in.rqs))
        .num("reclaim.protect_ns", mean_ns(call::protect))
        .num("reclaim.unprotect_ns", mean_ns(call::unprotect))
        .num("reclaim.protects_per_op", ratio(protects, ops))
        .num("reclaim.protect_fail_frac",
             ratio(static_cast<double>(in.protect_failures), protects))
        .num("reclaim.scans_per_kretire",
             ratio(in.stats.scans * 1e3, static_cast<double>(in.stats.retired)))
        .num("reclaim.leave_qstate_ns", mean_ns(call::leave_qstate))
        .num("reclaim.enter_qstate_ns", mean_ns(call::enter_qstate))
        .num("reclaim.retire_ns", mean_ns(call::retire))
        .num("reclaim.rotate_ns", mean_ns(call::rotate))
        .num("reclaim.retires_per_op",
             ratio(static_cast<double>(in.stats.retired), ops))
        .num("reclaim.epochs_per_kop", ratio(in.stats.epochs * 1e3, ops))
        .num("reclaim.self_frac",
             ratio(sum_over(in.self, reclaim_calls), ds_ticks))
        .num("reclaim.neutralize_per_s",
             ratio(static_cast<double>(in.stats.neutralized), in.seconds))
        .num("reclaim.limbo_mean_records", ratio(in.limbo_mean_sum, in.trials))
        .num("reclaim.limbo_max_records", in.limbo_max)
        .num("reclaim.neutralized_spans",
             static_cast<long long>(in.neutralized))
        .num("pool.allocate_ns", mean_ns(call::pool_allocate))
        .num("pool.return_ns", ratio(returns_ticks * tns, returns_count))
        .num("pool.hit_frac",
             pool_allocs > 0 ? 1.0 - alloc_allocs / pool_allocs : 0.0)
        .num("pool.shared_steals_per_kop", ratio(in.stats.steals * 1e3, ops))
        .num("alloc.allocate_ns", mean_ns(call::alloc_allocate))
        .num("alloc.fresh_per_kop", ratio(in.stats.allocated * 1e3, ops))
        .num("harness.gen_lag_p99_us", lag99.value / 1e3)
        .num("harness.backlog_max_ops", in.backlog_max)
        .num("trace.overhead_frac", overhead_frac)
        .done();
}

/// Writes the sampled spans as TSV: trial, tid, op, id, parent, call,
/// start and end in ns from the trial's first span.
inline bool write_spans(const std::string& path,
                        const std::vector<trial_result>& trials) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "trial\ttid\top\tid\tparent\tcall\tstart_ns\tend_ns\n");
    const double tns = ns_per_tick();
    int trial = 0;
    for (const auto& r : trials) {
        if (!r.traced) continue;
        std::uint64_t base = ~std::uint64_t{0};
        for (const auto& tr : r.tracers) {
            if (tr->span_count() > 0) {
                base = std::min(base, tr->spans()[0].start);
            }
        }
        for (std::size_t t = 0; t < r.tracers.size(); ++t) {
            const tracer& tr = *r.tracers[t];
            for (std::size_t i = 0; i < tr.span_count(); ++i) {
                const span_rec& s = tr.spans()[i];
                std::fprintf(
                    f, "%d\t%zu\t%u\t%u\t%lld\t%s\t%.0f\t%.0f\n", trial, t,
                    s.op, s.id,
                    s.parent == NO_PARENT ? -1LL
                                          : static_cast<long long>(s.parent),
                    call_names[static_cast<int>(s.c)],
                    static_cast<double>(s.start - base) * tns,
                    static_cast<double>(s.end - base) * tns);
            }
        }
        ++trial;
    }
    return std::fclose(f) == 0;
}

// ---- build / host stanza --------------------------------------------------------------

inline std::string cpu_model() {
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext < 0x80000004u) return "unknown";
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

#ifndef SMR_PERF_BUILD_TYPE
#define SMR_PERF_BUILD_TYPE "unknown"
#endif

#ifdef NDEBUG
inline constexpr bool ndebug = true;
#else
inline constexpr bool ndebug = false;
#endif

inline std::string build_json() {
    return json_obj()
#ifdef __clang__
        .str("compiler", "clang " __clang_version__)
#else
        .str("compiler", "gcc " __VERSION__)
#endif
        .str("build_type", SMR_PERF_BUILD_TYPE)
        .boolean("ndebug", ndebug)
        .str("cpu_model", cpu_model())
        .str("clock", std::string(smr::lat_clock::source_name()) +
                          (std::strcmp(smr::lat_clock::source_name(), "tsc") ==
                                   0
                               ? " (calibrated against steady_clock)"
                               : ""))
        .done();
}

// ---- workload runs ------------------------------------------------------------------

template <class S>
int run_workload(const workload_spec& w, trial_params tp, bool trace,
                 const std::string& trace_out) {
    std::vector<trial_result> results;
    const std::uint64_t seed = tp.seed;
    // Untimed warm-up set-up: the first one in a process also pays for
    // the heap's first growth.
    (void)set_up<plain_mgr<S>>(w, seed, thread_count(w, tp));
    if (!trace) {
        tp.seconds /= TRIALS;
        for (int i = 0; i < TRIALS; ++i) {
            tp.seed = seed * 7919 + static_cast<std::uint64_t>(i);
            results.push_back(run_trial<plain_mgr<S>>(w, tp));
        }
    } else {
        // Untraced and traced trials alternate on the same seeds.
        tp.seconds /= 2 * TRACE_PAIRS;
        for (int i = 0; i < TRACE_PAIRS; ++i) {
            tp.seed = seed * 7919 + static_cast<std::uint64_t>(i);
            tp.traced = false;
            results.push_back(run_trial<plain_mgr<S>>(w, tp));
            tp.traced = true;
            results.push_back(run_trial<traced_mgr<S>>(w, tp));
        }
    }

    std::string out = "[";
    bool all_ok = true;
    for (auto& r : results) {
        all_ok = all_ok && r.check_ok;
        if (out.size() > 1) out += ",";
        out += trial_json(r);
    }
    out += "]";

    json_obj doc;
    doc.str("workload", w.name)
        .num("seed", static_cast<long long>(seed))
        .num("threads", static_cast<long long>(tp.threads))
        .num("lat_sample_every", static_cast<long long>(lat_sample_every(w)))
        .num("latency_limit_us", w.latency_limit_us)
        .num("offered_mops", w.rate_ops / 1e6)
        .raw("build", build_json())
        .raw("trials", out);

    if (trace) {
        layer_inputs in;
        span_check chk;
        std::vector<double> plain, traced;
        for (auto& r : results) {
            (r.traced ? traced : plain).push_back(r.ops / r.seconds);
            if (!r.traced) continue;
            in.add(r);
            for (const auto& tr : r.tracers) check_spans(*tr, chk);
        }
        const double overhead = 1.0 - median(traced) / median(plain);
        const double tns = ns_per_tick();
        std::string shares = "{";
        for (int l = 0; l < N_LAYERS; ++l) {
            char b[96];
            std::snprintf(b, sizeof b, "%s\"%s\":%.6f", l ? "," : "",
                          layer_names[l],
                          ratio(static_cast<double>(chk.layer_self[l]),
                                static_cast<double>(chk.op_ticks)));
            shares += b;
        }
        shares += "}";
        const bool wrote = trace_out.empty() || write_spans(trace_out, results);
        doc.raw("per_layer", layer_json(in, overhead))
            .raw("span_check",
                 json_obj()
                     .num("ops", chk.ops)
                     .num("spans", chk.spans)
                     .num("violations", chk.violations)
                     .str("first_violation", chk.first_violation)
                     .num("op_span_ns_mean",
                          ratio(chk.op_ticks * tns, static_cast<double>(chk.ops)))
                     .raw("self_share", shares)
                     .str("file", wrote ? trace_out : "(write failed)")
                     .done());
        all_ok = all_ok && chk.violations == 0 && chk.ops > 0 && wrote;
    }
    doc.boolean("correct", all_ok);
    std::printf("%s\n", doc.done().c_str());
    return all_ok ? 0 : 1;
}

/// Proves the output check works: a clean trial passes it, and a trial
/// whose worker forgets one successful insert fails it.
int self_test() {
    const workload_spec w = {"self_test", scheme_kind::debra, 2000, 50, 50,
                             0, 0, 0, 0, false, 0};
    trial_params tp;
    tp.seconds = 0.1;
    tp.threads = 2;
    tp.seed = 42;
    using mgr = plain_mgr<smr::reclaim::reclaim_debra>;
    const trial_result clean = run_trial<mgr>(w, tp);
    tp.drop_one_insert = true;
    const trial_result dropped = run_trial<mgr>(w, tp);
    std::printf("self-test: clean trial: %s\n", clean.check_msg.c_str());
    std::printf("self-test: dropped-key trial: %s\n",
                dropped.check_msg.c_str());
    if (!clean.check_ok || dropped.check_ok) {
        std::printf("self-test: FAILED (the output check %s)\n",
                    dropped.check_ok ? "missed a dropped key"
                                     : "rejected a clean run");
        return 1;
    }
    std::printf("self-test: ok\n");
    return 0;
}

}  // namespace perf

int main(int argc, char** argv) {
    std::string workload, trace_out;
    long long seed = -1;
    double seconds = 0;
    int trace = 0;
    bool want_self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "smr_perf: %s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") workload = val();
        else if (a == "--seed") seed = std::atoll(val().c_str());
        else if (a == "--seconds") seconds = std::atof(val().c_str());
        else if (a == "--trace") trace = std::atoi(val().c_str());
        else if (a == "--trace-out") trace_out = val();
        else if (a == "--self-test") want_self_test = true;
        else {
            std::fprintf(stderr, "smr_perf: unknown argument %s\n", a.c_str());
            return 2;
        }
    }
    (void)smr::lat_clock::now();  // calibrate before any thread starts
    if (want_self_test) return perf::self_test();
    if (!perf::ndebug) {
        std::fprintf(stderr, "smr_perf: built without NDEBUG; refusing to "
                             "record assert-laden numbers\n");
        return 2;
    }
    if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
        std::fprintf(stderr, "usage: smr_perf --workload W --seed N --seconds "
                             "S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    const perf::workload_spec* w = nullptr;
    for (const auto& cand : perf::WORKLOADS) {
        if (workload == cand.name) w = &cand;
    }
    if (w == nullptr) {
        std::fprintf(stderr, "smr_perf: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    perf::trial_params tp;
    tp.seed = static_cast<std::uint64_t>(seed);
    tp.seconds = seconds;
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                          ? CPU_COUNT(&cpus)
                          : 1;
    tp.threads = std::min(4, std::max(1, nproc));
    // The paced rate is defined for three workers; fewer cores scale it.
    perf::workload_spec spec = *w;
    if (spec.straggler && spec.rate_ops > 0) {
        spec.rate_ops *= std::max(1, tp.threads - 1) / 3.0;
    }
    switch (spec.scheme) {
        case perf::scheme_kind::debra:
            return perf::run_workload<smr::reclaim::reclaim_debra>(
                spec, tp, trace == 1, trace_out);
        case perf::scheme_kind::hp:
            return perf::run_workload<smr::reclaim::reclaim_hp>(
                spec, tp, trace == 1, trace_out);
        case perf::scheme_kind::debra_plus:
            return perf::run_workload<smr::reclaim::reclaim_debra_plus>(
                spec, tp, trace == 1, trace_out);
    }
    return 2;
}
