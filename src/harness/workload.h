// workload.h -- the paper's experimental harness (Section 7), generalized
// over the container concepts of src/ds/concepts.h.
//
// Every experiment in the paper follows the same shape: prefill a set data
// structure to half its key range, then have T threads perform a random
// operation mix (x% insert / y% delete / rest search) on uniform keys for a
// fixed wall-clock interval, and report throughput plus memory metrics.
// This header implements that harness once, as one trial engine
// (run_timed_trial) parameterized by an operation shape:
//
//   run_trial          ordered_set_like structures: insert / erase /
//                      contains plus (rq_pct > 0) range_query ops, the
//                      workload that stresses per-access protection
//                      windows;
//   run_pushpop_trial  stack_queue_like structures: push / try_pop mixes,
//                      which finally lets treiber_stack and ms_queue into
//                      the scenario registry.
//
// The same loop runs closed-loop benchmarks and sustained-service soaks
// (serve_config::enabled, DESIGN.md Section 12.5): a closed loop is an
// open loop at infinite rate, so serve mode only adds a per-worker token
// bucket, registration-churn waves, the event trace, and the snapshot
// streamer with its leak monitor. Phases, pauses, the straggler, latency
// sampling and the per-phase harvest behave identically in both modes.
//
// Correctness guard: each thread tracks the net number of keys (elements)
// it added; after the trial the structure's size must equal the prefill
// size plus the summed deltas. A reclamation bug that frees a reachable
// node reliably breaks this (or crashes), so every benchmark run doubles
// as a large randomized test.
//
// Per-phase metric harvest: phased trials snapshot the reclamation
// counters (cumulative, from debug_stats -- race-free relaxed atomics) at
// every phase transition and at the end of the trial, so limbo waves in
// scenarios like zipf_churn are visible directly instead of only as
// trial-end totals.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../obs/event_ring.h"
#include "../obs/snapshot.h"
#include "../topo/pin.h"
#include "../util/barrier.h"
#include "../util/debug_stats.h"
#include "../util/padded.h"
#include "../util/prng.h"
#include "../util/timing.h"
#include "bench_config.h"
#include "json.h"
#include "key_dist.h"
#include "latency.h"
#include "schedule.h"

namespace smr::harness {

/// The run-document schema (report.h builds and validates it). Defined here
/// because serve-mode trials stamp it on their timeline header.
inline constexpr int SMR_BENCH_SCHEMA_VERSION = 4;

/// Sustained-service ("soak") mode: instead of a closed loop saturating the
/// structure, every worker paces itself against an open-loop arrival rate
/// (token bucket), while a sampler thread streams snapshot + event timelines
/// and an invariant monitor watches limbo / footprint for monotone growth
/// (the leak sentinel). run_timed_trial below runs both modes.
struct serve_config {
    bool enabled = false;
    /// Total offered load across all workers, ops/sec. Split evenly per
    /// thread; 0 = unpaced (degenerates to the closed loop, still with
    /// snapshots + monitor).
    long long ops_per_sec = 100000;
    /// Sampler period for the snapshot streamer.
    int snapshot_ms = 100;
    /// Thread-churn waves: every churn_period_ms the last `churn_threads`
    /// workers deregister and re-register (fresh thread_handle), exercising
    /// the register/deregister path mid-service. 0 disables churn.
    int churn_period_ms = 0;
    int churn_threads = 0;
    /// JSONL timeline destination; empty = monitor-only (no file).
    std::string timeline_path;
    /// Event-ring capacity per thread (rounded up to a power of two).
    long long ring_capacity = 4096;
    /// Invariant-monitor tuning (see obs::monitor_config).
    int monitor_window = 8;
    long long monitor_min_growth = 4096;
    int monitor_consecutive = 3;
    int monitor_warmup = 4;
    /// Leak canary: when > 0, worker 0 deliberately leaks one retired
    /// record every N operations (record_manager::leak_retired_record).
    /// The monitor must trip on it -- proves the sentinel detects leaks.
    long long canary_leak_every = 0;
};

/// Serve-mode harvest, populated only when serve_config::enabled.
struct serve_result {
    bool ran = false;
    long long snapshots = 0;
    long long monitor_violations = 0;
    long long first_violation_snapshot = -1;
    double target_ops_per_sec = 0;
    double achieved_ops_per_sec = 0;
    long long churn_cycles = 0;
    long long canary_leaks = 0;
    std::uint64_t events_drained = 0;
    std::uint64_t events_dropped = 0;
};

struct workload_config {
    int num_threads = 2;
    long long key_range = 10000;
    int insert_pct = 50;
    int delete_pct = 50;
    int trial_ms = 200;
    std::uint64_t seed = 1;
    bool prefill = true;
    /// When >= 0, thread `stall_tid` does not run the operation mix;
    /// instead it repeatedly leaves a quiescent state and sleeps for
    /// `stall_ms`, blocking the epoch exactly like the paper's preempted
    /// processes (Figure 9 discussion). Requires the data structure's
    /// manager; neutralizable schemes recover via run_op.
    int stall_tid = -1;
    int stall_ms = 10;
    /// Set-shaped trials only: percentage of operations that are range
    /// queries of `rq_len` consecutive keys (carved out of the contains
    /// share; insert_pct + delete_pct + rq_pct must stay <= 100).
    int rq_pct = 0;
    long long rq_len = 100;
    /// Key distribution (default: the paper's uniform draw).
    key_dist_config dist;
    /// Phased schedule. Empty = one phase of {insert_pct, delete_pct} for
    /// the whole trial (the paper's shape). Non-empty = the phases cycle
    /// for trial_ms, overriding insert_pct/delete_pct.
    std::vector<phase_spec> phases;
    /// Thread placement: workers pin themselves per this policy at
    /// registration time (worker t = pin index t). Default: scheduler's
    /// choice, the pre-topology behavior.
    topo::pin_policy pin = topo::pin_policy::none;
    /// Per-op latency sampling: every N-th operation per thread is timed
    /// into the per-op-kind histograms (--lat-sample). 0 disables
    /// recording; 1 times every operation.
    int lat_sample = 32;
    /// Sustained-service mode; every field but `enabled` is ignored while
    /// `enabled` is false.
    serve_config serve;
};

/// One snapshot of the (cumulative) reclamation counters, taken by the
/// control thread at a phase transition or at trial end. Differencing
/// consecutive snapshots yields per-phase-occurrence deltas.
struct phase_metric {
    int phase = 0;            // phase that just ended
    long long at_ms = 0;      // elapsed trial time at the snapshot
    std::uint64_t records_retired = 0;
    std::uint64_t records_pooled = 0;
    std::uint64_t epochs_advanced = 0;
    std::uint64_t era_scans = 0;
    std::uint64_t hp_scans = 0;
    std::uint64_t neutralize_sent = 0;
    /// retired - pooled: records sitting in limbo bags, estimated from the
    /// race-free counters (limbo bag sizes themselves are owner-local).
    long long limbo_estimate = 0;
    /// Latency of the phase occurrence that just ended: percentiles of the
    /// *delta* histogram (all op kinds merged) between this snapshot and
    /// the previous one. lat_max_ns is cumulative (a max cannot be
    /// differenced); lat_samples counts this occurrence's timed ops.
    std::uint64_t lat_samples = 0;
    std::uint64_t lat_p50_ns = 0;
    std::uint64_t lat_p99_ns = 0;
    std::uint64_t lat_p999_ns = 0;
    std::uint64_t lat_max_ns = 0;
};

struct trial_result {
    double seconds = 0;
    long long total_ops = 0;
    long long finds = 0;
    long long inserts_attempted = 0;
    long long deletes_attempted = 0;
    long long inserts_succeeded = 0;
    long long deletes_succeeded = 0;
    long long range_queries = 0;    // range_query ops completed
    long long range_keys = 0;       // keys delivered to range visitors
    long long prefill_size = 0;
    long long final_size = 0;
    long long expected_final_size = 0;

    // Reclamation metrics harvested from debug_stats after the trial.
    std::uint64_t records_retired = 0;
    std::uint64_t records_pooled = 0;
    std::uint64_t records_allocated = 0;
    std::uint64_t records_reused = 0;
    std::uint64_t epochs_advanced = 0;
    std::uint64_t neutralize_sent = 0;
    std::uint64_t neutralize_received = 0;
    std::uint64_t hp_scans = 0;
    std::uint64_t era_scans = 0;
    std::uint64_t op_restarts = 0;
    // Memory-placement counters (sharded pool + arena allocator): all
    // structurally zero on single-shard (single-socket) hosts.
    std::uint64_t pool_shared_steals = 0;
    std::uint64_t pool_remote_steals = 0;
    std::uint64_t pool_remote_returns = 0;
    std::uint64_t arena_remote_frees = 0;
    long long limbo_records = 0;     // still waiting to be freed at the end
    long long allocated_bytes = -1;  // bump allocators only (Figure 9 right)

    /// Operations completed while each schedule phase was active, summed
    /// over workers (index = phase index; one entry for phase-less runs).
    std::vector<long long> phase_ops;

    /// Cumulative counter snapshots at phase boundaries (phased trials
    /// only; empty otherwise). See phase_metric.
    std::vector<phase_metric> phase_metrics;

    /// Per-op latency histograms + stall attribution (schema v3's
    /// "latency" stanza). Empty (count 0) when lat_sample was 0.
    latency_result latency;

    /// Serve-mode telemetry (schema v4's "serve" stanza); ran == false for
    /// closed-loop trials.
    serve_result serve;

    double mops_per_sec() const {
        return seconds > 0 ? total_ops / seconds / 1e6 : 0.0;
    }
    bool size_invariant_holds() const {
        return final_size == expected_final_size;
    }
};

// env_int and the rest of the knob-resolution chain live in
// bench_config.h (see DESIGN.md Substitutions); included here so existing
// harness users keep reaching harness::env_int through this header.

/// Fills `ds` with uniformly random keys until it holds `target` keys.
/// Runs on the calling thread through `acc`, an accessor minted from a
/// live thread_handle.
template <class DS, class Acc>
long long prefill_to(DS& ds, Acc acc, long long key_range, long long target,
                     std::uint64_t seed) {
    prng rng(seed ^ 0xabcdef12345ULL);
    long long size = 0;
    while (size < target) {
        const long long key = static_cast<long long>(
            rng.next(static_cast<std::uint64_t>(key_range)));
        if (ds.insert(acc, key, key)) ++size;
    }
    return size;
}

namespace workload_detail {

/// Per-worker tallies, shared by both operation shapes (push maps onto
/// the insert columns, pop onto the delete columns).
struct per_thread {
    long long ops = 0;
    long long finds = 0;
    long long ins_att = 0, ins_ok = 0;
    long long del_att = 0, del_ok = 0;
    long long rqs = 0, rq_keys = 0;
    long long net_keys = 0;
    std::vector<long long> phase_ops;
};

/// Snapshot the cumulative reclamation counters (control thread; workers
/// only ever touch their own debug_stats cells with relaxed atomics, so
/// this is race-free mid-trial).
inline phase_metric snapshot_counters(const debug_stats& d, int phase,
                                      long long at_ms) {
    phase_metric m;
    m.phase = phase;
    m.at_ms = at_ms;
    m.records_retired = d.total(stat::records_retired);
    m.records_pooled = d.total(stat::records_pooled);
    m.epochs_advanced = d.total(stat::epochs_advanced);
    m.era_scans = d.total(stat::era_scans);
    m.hp_scans = d.total(stat::hp_scans);
    m.neutralize_sent = d.total(stat::neutralize_signals_sent);
    m.limbo_estimate =
        static_cast<long long>(m.records_retired) -
        static_cast<long long>(m.records_pooled);
    return m;
}

/// The ordered_set_like operation arm: insert / erase / range_query /
/// contains, diced per the active mix.
struct set_shape {
    template <class DS, class Acc>
    static long long prefill(DS& ds, Acc acc, const workload_config& cfg) {
        return prefill_to(ds, acc, cfg.key_range, cfg.key_range / 2,
                          cfg.seed);
    }

    /// `lat` is non-null only for operations the sampling gate armed; the
    /// op_timing scopes bracket just the data structure call, so restarts
    /// inside it (neutralization, validation failures) are measured and
    /// the harness's own dice/tally work is not.
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config& cfg,
                      const key_dist_shared& dist, prng& rng, int ins_pct,
                      int del_pct, per_thread& mine,
                      op_latency_recorder* lat) {
        const long long key = dist.next(rng);
        const std::uint64_t dice = rng.next(100);
        if (dice < static_cast<std::uint64_t>(ins_pct)) {
            ++mine.ins_att;
            op_timing tm(lat);
            const bool ok = ds.insert(acc, key, key);
            tm.done(op_kind::insert);
            if (ok) {
                ++mine.ins_ok;
                ++mine.net_keys;
            }
        } else if (dice < static_cast<std::uint64_t>(ins_pct + del_pct)) {
            ++mine.del_att;
            op_timing tm(lat);
            const bool ok = ds.erase(acc, key).has_value();
            tm.done(op_kind::erase);
            if (ok) {
                ++mine.del_ok;
                --mine.net_keys;
            }
        } else if (dice < static_cast<std::uint64_t>(ins_pct + del_pct +
                                                     cfg.rq_pct)) {
            // Range scan of rq_len consecutive keys starting at the drawn
            // key. The visitor is empty: range_query's return value is the
            // delivered-key count (and is safe under neutralization, where
            // a plain local counter would not be).
            long long hi = key + cfg.rq_len - 1;
            if (hi >= cfg.key_range) hi = cfg.key_range - 1;
            ++mine.rqs;
            op_timing tm(lat);
            const long long delivered = ds.range_query(
                acc, key, hi, [](const auto&, const auto&) { return true; });
            tm.done(op_kind::range_query);
            mine.rq_keys += delivered;
        } else {
            ++mine.finds;
            op_timing tm(lat);
            (void)ds.contains(acc, key);
            tm.done(op_kind::contains);
        }
    }
};

/// The stack_queue_like operation arm: the mix's insert share pushes, the
/// rest pops (pop "succeeds" when the container was non-empty).
struct pushpop_shape {
    template <class DS, class Acc>
    static long long prefill(DS& ds, Acc acc, const workload_config& cfg) {
        const long long target = cfg.key_range / 2;
        for (long long i = 0; i < target; ++i) {
            ds.push(acc, i);
        }
        return target;
    }

    /// Push times as op_kind::insert and pop as op_kind::erase, the same
    /// column reuse as the op-count tallies.
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config& cfg,
                      const key_dist_shared& dist, prng& rng, int ins_pct,
                      int /*del_pct*/, per_thread& mine,
                      op_latency_recorder* lat) {
        const long long value = dist.next(rng);
        const std::uint64_t dice = rng.next(100);
        if (dice < static_cast<std::uint64_t>(ins_pct)) {
            ++mine.ins_att;
            op_timing tm(lat);
            ds.push(acc, value);
            tm.done(op_kind::insert);
            ++mine.ins_ok;
            ++mine.net_keys;
        } else {
            ++mine.del_att;
            op_timing tm(lat);
            const bool ok = ds.try_pop(acc).has_value();
            tm.done(op_kind::erase);
            if (ok) {
                ++mine.del_ok;
                --mine.net_keys;
            }
        }
        (void)cfg;
    }
};

/// Max ops a paced worker issues per token-bucket wakeup: big enough to
/// amortize the clock read, small enough that a stop/churn signal is
/// honored promptly.
inline constexpr long long SERVE_BATCH = 64;

}  // namespace workload_detail

/// The one trial engine: prefill, spawn workers under RAII thread handles,
/// run the control loop, harvest. `Shape` is the operation arm
/// (workload_detail::set_shape / pushpop_shape, or a scenario's own: any
/// type with the same static prefill / do_op pair).
///
/// Workers run the active phase's mix (honoring its pause_us think time),
/// or the epoch-blocking straggler loop for cfg.stall_tid. With
/// cfg.serve.enabled the same workers also pace themselves (token bucket:
/// their share of ops_per_sec accrues with wall-clock time and is issued
/// in bursts of at most SERVE_BATCH; 0 = unpaced), the last churn_threads
/// of them deregister and re-register on every churn wave, and worker 0
/// leaks a retired record every canary_leak_every ops. Serve mode also
/// arms the event trace and a snapshot streamer whose invariant monitor
/// fills res.serve; `timeline_meta` (ds / scheme / ...) is merged into the
/// timeline header.
///
/// The control thread publishes the schedule phase, snapshots the counters
/// at phase boundaries (phase_metrics), slides the hotspot window and fires
/// churn waves on 1ms ticks -- and just sleeps for trial_ms when none of
/// those is configured. Workers never read the clock unless paced.
template <class Shape, class DS, class Mgr>
trial_result run_timed_trial(DS& ds, Mgr& mgr, const workload_config& cfg,
                             const json& timeline_meta = json::object()) {
    using workload_detail::per_thread;
    const serve_config& sv = cfg.serve;
    trial_result res;
    mgr.stats().clear();
    assert(schedule_valid(cfg.phases) && "run_trial: invalid phase schedule");
    assert(cfg.insert_pct + cfg.delete_pct + cfg.rq_pct <= 100 &&
           "run_trial: op mix exceeds 100%");
    // Phased runs use each phase's insert/delete split with the global
    // rq_pct, so every phase must leave room for the range-query share --
    // otherwise the rq branch would be silently unreachable in that phase.
    for (const phase_spec& ph : cfg.phases) {
        (void)ph;
        assert(ph.insert_pct + ph.delete_pct + cfg.rq_pct <= 100 &&
               "run_trial: a phase's mix leaves no room for rq_pct");
    }

    if (sv.enabled) {
        res.serve.ran = true;
        res.serve.target_ops_per_sec = static_cast<double>(sv.ops_per_sec);
        obs::g_event_trace.enable(
            cfg.num_threads, sv.ring_capacity > 0
                                 ? static_cast<std::size_t>(sv.ring_capacity)
                                 : std::size_t{4096});
    }

    // Scenario-engine state: the shared key distribution, the current
    // schedule phase and the churn generation. Workers read them with
    // relaxed loads; only the control thread (below) writes them, on its
    // clock ticks.
    key_dist_shared dist(cfg.dist, cfg.key_range);
    const std::size_t num_phases =
        cfg.phases.empty() ? 1 : cfg.phases.size();
    std::atomic<int> phase_idx{0};
    std::atomic<std::uint64_t> churn_gen{0};

    if (cfg.prefill) {
        // Scoped registration: tid 0 must be free again for worker 0.
        auto h0 = mgr.register_thread(0);
        res.prefill_size = Shape::prefill(ds, mgr.access(h0), cfg);
    } else {
        // Baseline for the size invariant when the structure is reused
        // across trials (or deliberately started non-empty).
        res.prefill_size = ds.size_slow();
    }

    std::atomic<bool> start{false};
    std::atomic<bool> stop{false};
    spin_barrier ready(static_cast<std::uint32_t>(cfg.num_threads) + 1);
    spin_barrier done(static_cast<std::uint32_t>(cfg.num_threads) + 1);

    std::vector<per_thread> stats(static_cast<std::size_t>(cfg.num_threads));
    for (auto& s : stats) s.phase_ops.assign(num_phases, 0);

    // Per-thread latency recorders, cache-line padded like the counter
    // blocks. Workers write their own recorder only; the control thread
    // reads them concurrently (relaxed histogram loads -- a mid-phase
    // snapshot may trail by an op, which a per-phase delta tolerates).
    std::vector<padded<op_latency_recorder>> recorders(
        static_cast<std::size_t>(cfg.num_threads));
    for (auto& r : recorders) r->set_sample_every(cfg.lat_sample);

    // Serve-mode knobs, resolved to their closed-loop no-ops when serve
    // mode is off (rate 0 = unpaced, no churner, no canary).
    const double per_thread_rate =
        sv.enabled && sv.ops_per_sec > 0
            ? static_cast<double>(sv.ops_per_sec) / cfg.num_threads
            : 0.0;
    const int first_churner =
        sv.enabled && sv.churn_period_ms > 0 && sv.churn_threads > 0
            ? cfg.num_threads - sv.churn_threads
            : cfg.num_threads;
    // Written only by worker 0, read by the control thread after join.
    long long canary_leaks = 0;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.num_threads));
    for (int t = 0; t < cfg.num_threads; ++t) {
        threads.emplace_back([&, t] {
            prng rng(cfg.seed * 1000003ULL + static_cast<std::uint64_t>(t));
            per_thread& mine = stats[static_cast<std::size_t>(t)];
            op_latency_recorder& rec =
                *recorders[static_cast<std::size_t>(t)];
            const bool churner = t >= first_churner;
            const long long leak_every =
                sv.enabled && t == 0 ? sv.canary_leak_every : 0;
            stopwatch pace;
            bool first = true;
            // One iteration per registration scope: churners fall out of
            // the op loop on a generation change, the handle deregisters
            // (DEBRA+ drains its signals in deinit), and they re-register.
            // Everyone else runs one scope for the whole trial.
            for (;;) {
                // Registration applies the placement policy (compact/
                // scatter pinning) before the worker touches any memory,
                // so first-touch pages and arena homes land on the pinned
                // socket.
                auto handle = mgr.register_thread(t, cfg.pin);
                auto acc = mgr.access(handle);
                if (first) {
                    first = false;
                    ready.arrive_and_wait();
                    while (!start.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    pace.reset();  // token bucket accrues from trial start
                }
                const std::uint64_t my_gen =
                    churn_gen.load(std::memory_order_acquire);
                const auto serving = [&] {
                    return !stop.load(std::memory_order_acquire) &&
                           !(churner && churn_gen.load(
                                            std::memory_order_relaxed) !=
                                            my_gen);
                };
                const auto one_op = [&] {
                    int ins_pct = cfg.insert_pct;
                    int del_pct = cfg.delete_pct;
                    int pause_us = 0;
                    const int pi = phase_idx.load(std::memory_order_relaxed);
                    if (!cfg.phases.empty()) {
                        const phase_spec& ph =
                            cfg.phases[static_cast<std::size_t>(pi)];
                        ins_pct = ph.insert_pct;
                        del_pct = ph.delete_pct;
                        pause_us = ph.pause_us;
                    }
                    Shape::do_op(ds, acc, cfg, dist, rng, ins_pct, del_pct,
                                 mine, rec.arm() ? &rec : nullptr);
                    ++mine.ops;
                    ++mine.phase_ops[static_cast<std::size_t>(pi)];
                    if (leak_every > 0 && mine.ops % leak_every == 0) {
                        // Deliberate leak: retire accounting without a
                        // matching pool hand-back. The monitor must trip.
                        mgr.leak_retired_record(0);
                        ++canary_leaks;
                    }
                    if (pause_us > 0) {
                        // Bursty phase: think time between operations.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(pause_us));
                    }
                };

                if (t == cfg.stall_tid) {
                    // Epoch-blocking straggler (see workload_config::
                    // stall_tid).
                    while (serving()) {
                        acc.run_guarded(
                            [&] {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(cfg.stall_ms));
                                return true;
                            },
                            [] { return true; });
                        ++mine.ops;
                    }
                } else {
                    while (serving()) {
                        long long budget = 1;
                        if (per_thread_rate > 0) {
                            budget = static_cast<long long>(
                                         pace.elapsed_seconds() *
                                         per_thread_rate) -
                                     mine.ops;
                            if (budget <= 0) {
                                // Ahead of the arrival curve: open-loop
                                // idle.
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(100));
                                continue;
                            }
                            if (budget > workload_detail::SERVE_BATCH) {
                                budget = workload_detail::SERVE_BATCH;
                            }
                        }
                        while (budget-- > 0) one_op();
                    }
                }
                if (stop.load(std::memory_order_acquire)) {
                    // Still registered: deregistration (and DEBRA+'s
                    // signal drain) stays outside the timed window.
                    done.arrive_and_wait();
                    break;
                }
            }
        });
    }

    // Serve mode: snapshots + event drains + the leak monitor, on the
    // streamer's own sampler thread. Every snapshot is augmented with the
    // serve-side gauges the sampler can read race-free (atomics only).
    std::optional<obs::snapshot_streamer> streamer;
    json header_meta = json::object();
    if (sv.enabled) {
        obs::snapshot_config scfg;
        scfg.snapshot_ms = sv.snapshot_ms > 0 ? sv.snapshot_ms : 100;
        scfg.path = sv.timeline_path;
        scfg.monitor.window = sv.monitor_window;
        scfg.monitor.min_growth = sv.monitor_min_growth;
        scfg.monitor.consecutive = sv.monitor_consecutive;
        scfg.monitor.warmup = sv.monitor_warmup;
        streamer.emplace(scfg, &mgr.stats());
        streamer->set_augment([&churn_gen, &sv](json* snap) {
            snap->set("churn_waves",
                      static_cast<long long>(
                          churn_gen.load(std::memory_order_relaxed)));
            snap->set("target_ops_per_sec", sv.ops_per_sec);
        });
        if (timeline_meta.is_object()) {
            for (const auto& [k, v] : timeline_meta.members()) {
                header_meta.set(k, v);
            }
        }
        header_meta.set("mode", std::string("serve"));
        header_meta.set("target_ops_per_sec", sv.ops_per_sec);
        header_meta.set("churn_period_ms", sv.churn_period_ms);
        header_meta.set("churn_threads", sv.churn_threads);
        header_meta.set("canary_leak_every", sv.canary_leak_every);
        header_meta.set("threads", cfg.num_threads);
    }

    ready.arrive_and_wait();
    if (streamer) streamer->start(SMR_BENCH_SCHEMA_VERSION, header_meta);
    stopwatch timer;
    start.store(true, std::memory_order_release);
    const bool churning = first_churner < cfg.num_threads;
    const bool needs_ticks =
        !cfg.phases.empty() || churning ||
        (cfg.dist.kind == key_dist_kind::hotspot && cfg.dist.slide_ms > 0);
    if (!needs_ticks) {
        std::this_thread::sleep_for(std::chrono::milliseconds(cfg.trial_ms));
    } else {
        int last_phase = 0;
        long long next_churn_ms = sv.churn_period_ms;
        // Closes a phase occurrence: snapshot the cumulative counters, and
        // take its latency view by diffing the merged summary against the
        // previous boundary's. max_ns is reported cumulatively (a max
        // cannot be differenced).
        lat_summary prev_lat;
        const auto close_phase = [&](long long at_ms) {
            res.phase_metrics.push_back(workload_detail::snapshot_counters(
                mgr.stats(), last_phase, at_ms));
            phase_metric& m = res.phase_metrics.back();
            lat_summary cur;
            for (const auto& r : recorders) {
                for (int k = 0; k < N_OP_KINDS; ++k) {
                    cur.add(r->hist(static_cast<op_kind>(k)));
                }
            }
            const lat_summary d = lat_summary::delta(cur, prev_lat);
            m.lat_samples = d.count;
            m.lat_p50_ns = d.percentile(0.50);
            m.lat_p99_ns = d.percentile(0.99);
            m.lat_p999_ns = d.percentile(0.999);
            m.lat_max_ns = cur.max_ns;
            prev_lat = cur;
        };
        for (;;) {
            const long long elapsed_ms =
                static_cast<long long>(timer.elapsed_seconds() * 1000.0);
            if (elapsed_ms >= cfg.trial_ms) break;
            const int now_phase = phase_at(cfg.phases, elapsed_ms);
            if (!cfg.phases.empty() && now_phase != last_phase) {
                close_phase(elapsed_ms);
                last_phase = now_phase;
            }
            phase_idx.store(now_phase, std::memory_order_relaxed);
            dist.on_tick(elapsed_ms);
            if (churning && elapsed_ms >= next_churn_ms) {
                churn_gen.fetch_add(1, std::memory_order_acq_rel);
                next_churn_ms += sv.churn_period_ms;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!cfg.phases.empty()) {
            // Close the last phase occurrence at trial end.
            close_phase(
                static_cast<long long>(timer.elapsed_seconds() * 1000.0));
        }
    }
    stop.store(true, std::memory_order_release);
    done.arrive_and_wait();
    res.seconds = timer.elapsed_seconds();
    for (auto& th : threads) th.join();
    if (streamer) {
        // Final drain after workers quiesced (no producer is mid-emit),
        // then disarm the trace.
        streamer->stop();
        obs::g_event_trace.disable();
    }

    long long net = 0;
    res.phase_ops.assign(num_phases, 0);
    for (const auto& s : stats) {
        for (std::size_t p = 0; p < num_phases; ++p) {
            res.phase_ops[p] += s.phase_ops[p];
        }
        res.total_ops += s.ops;
        res.finds += s.finds;
        res.inserts_attempted += s.ins_att;
        res.inserts_succeeded += s.ins_ok;
        res.deletes_attempted += s.del_att;
        res.deletes_succeeded += s.del_ok;
        res.range_queries += s.rqs;
        res.range_keys += s.rq_keys;
        net += s.net_keys;
    }
    res.expected_final_size = res.prefill_size + net;
    res.final_size = ds.size_slow();

    const debug_stats& d = mgr.stats();
    res.records_retired = d.total(stat::records_retired);
    res.records_pooled = d.total(stat::records_pooled);
    res.records_allocated = d.total(stat::records_allocated);
    res.records_reused = d.total(stat::records_reused);
    res.epochs_advanced = d.total(stat::epochs_advanced);
    res.neutralize_sent = d.total(stat::neutralize_signals_sent);
    res.neutralize_received = d.total(stat::neutralize_signals_received);
    res.hp_scans = d.total(stat::hp_scans);
    res.era_scans = d.total(stat::era_scans);
    res.op_restarts = d.total(stat::op_restarts);
    res.pool_shared_steals = d.total(stat::pool_shared_steals);
    res.pool_remote_steals = d.total(stat::pool_remote_steals);
    res.pool_remote_returns = d.total(stat::pool_remote_returns);
    res.arena_remote_frees = d.total(stat::arena_remote_frees);
    res.limbo_records = mgr.total_limbo_all_types();
    res.allocated_bytes = mgr.total_allocated_bytes();

    // Latency harvest: workers have joined, so the recorder histograms are
    // stable; merge losslessly per op kind, then across kinds.
    res.latency.sample_every = cfg.lat_sample;
    res.latency.clock = lat_clock::source_name();
    for (int k = 0; k < N_OP_KINDS; ++k) {
        for (int t = 0; t < cfg.num_threads; ++t) {
            res.latency.ops[static_cast<std::size_t>(k)].add(
                recorders[static_cast<std::size_t>(t)]->hist(
                    static_cast<op_kind>(k)));
        }
        res.latency.total.add(res.latency.ops[static_cast<std::size_t>(k)]);
    }
    for (int s = 0; s < static_cast<int>(stall_site::COUNT); ++s) {
        res.latency.stalls[static_cast<std::size_t>(s)] =
            d.stall_summary(static_cast<stall_site>(s));
    }

    if (streamer) {
        res.serve.snapshots = streamer->snapshots();
        res.serve.monitor_violations = streamer->violations();
        res.serve.first_violation_snapshot =
            streamer->first_violation_sample();
        res.serve.achieved_ops_per_sec =
            res.seconds > 0 ? res.total_ops / res.seconds : 0.0;
        res.serve.churn_cycles = static_cast<long long>(
            churn_gen.load(std::memory_order_relaxed));
        res.serve.canary_leaks = canary_leaks;
        res.serve.events_drained = streamer->events_drained();
        res.serve.events_dropped = streamer->events_dropped();
    }
    return res;
}


/// Runs one timed trial of the paper's workload (plus optional range-query
/// share) on an ordered_set_like structure `ds`, whose records are managed
/// by `mgr`. Returns throughput and reclamation metrics. Thread
/// registration goes through the manager's RAII handles; worker `t` claims
/// tid `t` so per-thread metrics stay tid-indexed. `timeline_meta` only
/// matters in serve mode (see run_timed_trial).
template <class DS, class Mgr>
trial_result run_trial(DS& ds, Mgr& mgr, const workload_config& cfg,
                       const json& timeline_meta = json::object()) {
    return run_timed_trial<workload_detail::set_shape>(ds, mgr, cfg,
                                                       timeline_meta);
}

/// Runs one timed trial of the push/pop workload on a stack_queue_like
/// structure. The mix's insert_pct is the push share; every other
/// operation is a try_pop. The size invariant counts elements instead of
/// keys: prefill + pushes - successful pops == final size.
template <class DS, class Mgr>
trial_result run_pushpop_trial(DS& ds, Mgr& mgr, const workload_config& cfg,
                               const json& timeline_meta = json::object()) {
    return run_timed_trial<workload_detail::pushpop_shape>(ds, mgr, cfg,
                                                           timeline_meta);
}

}  // namespace smr::harness
