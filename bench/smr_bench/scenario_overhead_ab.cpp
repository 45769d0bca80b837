// scenario_overhead_ab.cpp -- the three overhead A/B scenarios. Each one
// bounds the throughput cost of one layer by running the paired A/B
// protocol (src/harness/paired_ab.h) over two arms of the one trial engine
// (run_timed_trial), on one prefilled 64Ki-key ellen_bst:
//
//   guard_overhead      the RAII guard layer vs a faithful raw-API replica
//                       of the BST search hot path, contains-only, per
//                       scheme (DEBRA: the guards must erase entirely; HP:
//                       the guard destructor replaces the hand-written
//                       unprotect);
//   latency_overhead    --lat-sample=32 vs recording disabled, 50i-50d on
//                       DEBRA: per-op tail observability must be cheap
//                       enough to stay on in every run;
//   telemetry_overhead  serve mode at rate 0 (event trace armed, a 50ms
//                       snapshot streamer draining the rings, monitor on,
//                       no timeline file) vs plain, 50i-50d on DEBRA:
//                       recording must be cheap enough to leave compiled
//                       in everywhere.
//
// Knobs: --trial-ms / --trials (min 3 so the paired median is meaningful)
// / --threads (first entry); SMR_AB_DELTA_PCT sets the acceptance
// threshold in percent (default 2). Verdict ok=false (exit 1) when a
// median paired delta exceeds the threshold, or a trial breaks the size
// invariant.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>

#include "harness/paired_ab.h"
#include "harness/report.h"
#include "scenarios.h"

namespace smr::bench {

namespace {

constexpr long long KEY_RANGE = 1 << 16;

using harness::paired_ab_result;
using harness::workload_config;
using harness::workload_detail::per_thread;

/// The raw-API replica of the seed's ellen_bst::find hot path, kept
/// faithful to the pre-redesign code line by line: clear_protections at
/// every search start, the hand-over-hand gp/p/l protect/unprotect chain
/// with update-word bookkeeping, and the Figure-5 finish sequence
/// (clear_protections; enter_qstate; runprotect_all).
template <class Mgr, class Tree>
bool raw_contains(Mgr& mgr, int tid, Tree& tree, const key_t& key) {
    using node_t = typename Tree::node_t;
    using sp = typename Tree::sp;
    std::optional<val_t> result;
    mgr.run_op(
        tid,
        [&](int t) {
            mgr.leave_qstate(t);
            for (;;) {
                // -- the seed's search() --
                mgr.clear_protections(t);
                node_t* gp = nullptr;
                node_t* p = nullptr;
                std::uintptr_t gpupdate = sp::pack(nullptr, ds::BST_CLEAN, 0);
                std::uintptr_t pupdate = sp::pack(nullptr, ds::BST_CLEAN, 0);
                node_t* l = tree.root();
                mgr.protect(t, l);  // root is never retired
                bool restart = false;
                while (!l->is_leaf()) {
                    if (gp != nullptr) mgr.unprotect(t, gp);
                    gp = p;
                    p = l;
                    gpupdate = pupdate;
                    pupdate = p->update.load(std::memory_order_acquire);
                    std::atomic<node_t*>* link =
                        (l->inf != 0 || key < l->key) ? &l->left : &l->right;
                    node_t* child = link->load(std::memory_order_acquire);
                    node_t* parent = l;
                    if (!mgr.protect(t, child, [&] {
                            const std::uintptr_t u = parent->update.load(
                                std::memory_order_seq_cst);
                            return sp::state(u) != ds::BST_MARK &&
                                   link->load(std::memory_order_seq_cst) ==
                                       child;
                        })) {
                        restart = true;
                        break;
                    }
                    l = child;
                }
                (void)gpupdate;
                if (restart) {
                    mgr.stats().add(t, stat::op_restarts);
                    continue;
                }
                result = (l->inf == 0 && l->key == key)
                             ? std::optional<val_t>(l->value)
                             : std::nullopt;
                break;
            }
            mgr.clear_protections(t);
            mgr.enter_qstate(t);
            mgr.runprotect_all(t);
            return true;
        },
        [&](int) { return false; });
    return result.has_value();
}

/// guard_overhead's two operation shapes: contains-only over uniform keys,
/// through the guard layer or through the raw replica. Both inherit the
/// set shape's half-full prefill.
struct guarded_contains_shape : harness::workload_detail::set_shape {
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config&,
                      const harness::key_dist_shared& dist, prng& rng, int,
                      int, per_thread& mine, harness::op_latency_recorder*) {
        ++mine.finds;
        (void)ds.contains(acc, dist.next(rng));
    }
};

struct raw_contains_shape : harness::workload_detail::set_shape {
    template <class DS, class Acc>
    static void do_op(DS& ds, Acc acc, const workload_config&,
                      const harness::key_dist_shared& dist, prng& rng, int,
                      int, per_thread& mine, harness::op_latency_recorder*) {
        ++mine.finds;
        (void)raw_contains(acc.manager(), acc.tid(), ds, dist.next(rng));
    }
};

/// What every overhead scenario shares: the threshold knob, the thread
/// count, and the base workload (both arms of a pair run it on the same
/// warm tree; only the warm-up prefills).
struct ab_setup {
    int threshold = harness::env_int("SMR_AB_DELTA_PCT", 2);
    int threads;
    int trials;  // what run_paired_ab will run: cfg.trials, at least 3
    workload_config wl;
    bool invariant_ok = true;

    explicit ab_setup(const harness::bench_config& cfg)
        : threads(cfg.thread_counts.front()),
          trials(std::max(cfg.trials, harness::PAIRED_AB_MIN_TRIALS)) {
        wl.num_threads = threads;
        wl.key_range = KEY_RANGE;
        wl.insert_pct = 50;
        wl.delete_pct = 50;
        wl.trial_ms = cfg.trial_ms;
        wl.lat_sample = 0;
    }

    /// Points the workload at one trial of the protocol (-1 = warm-up):
    /// the warm-up prefills and shares trial 0's seed.
    void begin_trial(const harness::bench_config& cfg, int trial) {
        wl.prefill = trial < 0;
        wl.seed = cfg.seed + static_cast<std::uint64_t>(trial < 0 ? 0 : trial);
    }

    double score(const harness::trial_result& r) {
        if (!r.size_invariant_holds()) invariant_ok = false;
        return r.mops_per_sec();
    }
};

void print_pair(const char* label, int threads, const char* test_name,
                const char* base_name, const paired_ab_result& r,
                const std::string& extra) {
    std::printf("%-8s %2d thr   %s %8.3f Mops/s   %s %8.3f Mops/s   "
                "median paired delta %+6.2f%%%s\n",
                label, threads, test_name, r.test_best, base_name,
                r.base_best, r.delta_pct, extra.c_str());
}

/// Verdict line + the shared run document (config stanza, envelope).
int finish(const scenario& sc, const harness::bench_config& cfg,
           const ab_setup& ab, bool ab_ok, const char* claim,
           const char* against, harness::json points, harness::json* doc) {
    const bool ok = ab_ok && ab.invariant_ok;
    if (!ab.invariant_ok) {
        std::printf("FAIL: a trial violated the size invariant\n");
    }
    std::printf("%s: %s is%s within %d%% of %s\n", ab_ok ? "PASS" : "FAIL",
                claim, ab_ok ? "" : " NOT", ab.threshold, against);

    harness::json config = harness::json::object();
    config.set("key_range", KEY_RANGE);
    config.set("threshold_pct", ab.threshold);
    config.set("trial_ms", cfg.trial_ms);
    config.set("trials", ab.trials);
    harness::json th = harness::json::array();
    for (int t : cfg.thread_counts) th.push_back(t);
    config.set("threads", std::move(th));
    config.set("seed", static_cast<long long>(cfg.seed));
    *doc = harness::make_run_document(sc.kind(), sc.name, sc.summary,
                                      sc.paper_ref, std::move(config),
                                      std::move(points), ab.invariant_ok, ok);
    return ok ? 0 : 1;
}

template <class Scheme>
paired_ab_result guard_ab(const harness::bench_config& cfg, ab_setup& ab) {
    using mgr_t = record_manager<Scheme, alloc_malloc, pool_shared,
                                 ds::bst_node<key_t, val_t>,
                                 ds::bst_info<key_t, val_t>>;
    mgr_t mgr(ab.threads);
    ds::ellen_bst<key_t, val_t, mgr_t> tree(mgr);
    return harness::run_paired_ab(
        cfg.trials, ab.threshold, [&](bool guarded, int trial) {
            ab.begin_trial(cfg, trial);
            return ab.score(
                guarded ? harness::run_timed_trial<guarded_contains_shape>(
                              tree, mgr, ab.wl)
                        : harness::run_timed_trial<raw_contains_shape>(
                              tree, mgr, ab.wl));
        });
}

using debra_bst_mgr =
    record_manager<reclaim::reclaim_debra, alloc_bump, pool_shared,
                   ds::bst_node<key_t, val_t>, ds::bst_info<key_t, val_t>>;

}  // namespace

int run_guard_overhead(const scenario& sc, const harness::bench_config& cfg,
                       harness::json* doc) {
    ab_setup ab(cfg);
    std::printf("guard_overhead: guard layer vs raw API, BST search hot "
                "path (%lld keys, %d ms x %d trials, threshold %d%%)\n",
                KEY_RANGE, cfg.trial_ms, ab.trials, ab.threshold);
    const paired_ab_result debra = guard_ab<reclaim::reclaim_debra>(cfg, ab);
    print_pair("debra", ab.threads, "guard", "raw", debra, "");
    const paired_ab_result hp = guard_ab<reclaim::reclaim_hp>(cfg, ab);
    print_pair("hp", ab.threads, "guard", "raw", hp, "");

    harness::json points = harness::json::array();
    points.push_back(
        harness::paired_ab_point(debra, "guard", "raw", "debra", ab.threads));
    points.push_back(
        harness::paired_ab_point(hp, "guard", "raw", "hp", ab.threads));
    return finish(sc, cfg, ab, debra.ok && hp.ok,
                  "guard layer", "the raw API", std::move(points), doc);
}

int run_latency_overhead(const scenario& sc,
                         const harness::bench_config& cfg,
                         harness::json* doc) {
    ab_setup ab(cfg);
    std::printf("latency_overhead: --lat-sample=32 vs --lat-sample=0, "
                "ellen_bst + debra, 50i-50d (%lld keys, %d ms x %d trials, "
                "threshold %d%%)\n",
                KEY_RANGE, cfg.trial_ms, ab.trials, ab.threshold);
    debra_bst_mgr mgr(ab.threads);
    ds::ellen_bst<key_t, val_t, debra_bst_mgr> tree(mgr);
    std::uint64_t samples = 0;
    const paired_ab_result r = harness::run_paired_ab(
        cfg.trials, ab.threshold, [&](bool sampled, int trial) {
            ab.begin_trial(cfg, trial);
            ab.wl.lat_sample = sampled ? 32 : 0;
            const harness::trial_result tr =
                harness::run_trial(tree, mgr, ab.wl);
            if (sampled) samples += tr.latency.total.count;
            return ab.score(tr);
        });
    print_pair("debra", ab.threads, "sampled", "plain", r,
               "   (" + std::to_string(samples) + " samples, clock " +
                   lat_clock::source_name() + ")");

    harness::json p =
        harness::paired_ab_point(r, "sampled", "plain", "debra", ab.threads);
    p.set("samples", static_cast<long long>(samples));
    p.set("clock", std::string(lat_clock::source_name()));
    harness::json points = harness::json::array();
    points.push_back(std::move(p));
    return finish(sc, cfg, ab, r.ok,
                  "latency recording at --lat-sample=32",
                  "recording disabled", std::move(points), doc);
}

int run_telemetry_overhead(const scenario& sc,
                           const harness::bench_config& cfg,
                           harness::json* doc) {
    ab_setup ab(cfg);
    std::printf("telemetry_overhead: event trace + 50ms snapshot streamer "
                "vs tracing disabled, ellen_bst + debra, 50i-50d "
                "(%lld keys, %d ms x %d trials, threshold %d%%)\n",
                KEY_RANGE, cfg.trial_ms, ab.trials, ab.threshold);
    debra_bst_mgr mgr(ab.threads);
    ds::ellen_bst<key_t, val_t, debra_bst_mgr> tree(mgr);
    // The traced arm is the worst plausible recording configuration:
    // every reclamation event emitted, a live sampler draining rings every
    // 50ms, monitor on. No timeline file -- disk writes would measure the
    // filesystem, not the recording path.
    ab.wl.serve.ops_per_sec = 0;
    ab.wl.serve.snapshot_ms = 50;
    std::uint64_t events = 0;
    const paired_ab_result r = harness::run_paired_ab(
        cfg.trials, ab.threshold, [&](bool traced, int trial) {
            ab.begin_trial(cfg, trial);
            ab.wl.serve.enabled = traced;
            const harness::trial_result tr =
                harness::run_trial(tree, mgr, ab.wl);
            events += tr.serve.events_drained;
            return ab.score(tr);
        });
    print_pair("debra", ab.threads, "traced", "plain", r,
               "   (" + std::to_string(events) + " events drained)");

    harness::json p =
        harness::paired_ab_point(r, "traced", "plain", "debra", ab.threads);
    p.set("events_drained", static_cast<long long>(events));
    harness::json points = harness::json::array();
    points.push_back(std::move(p));
    return finish(sc, cfg, ab, r.ok,
                  "event tracing + snapshot streaming", "tracing disabled",
                  std::move(points), doc);
}

}  // namespace smr::bench
