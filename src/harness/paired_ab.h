// paired_ab.h -- the paired A/B protocol behind every overhead scenario
// (guard_overhead, latency_overhead, telemetry_overhead).
//
// Each scenario claims that some layer (the guard wrapper, latency
// sampling, event tracing) costs at most a few percent of throughput. The
// claim is tested one way: a *test* arm (layer on) against a *base* arm
// (layer off), on the same warmed structure, as adjacent trials.
//
//   warm-up    one base-arm trial, unscored, so the first measured pair
//              does not start from a cold structure;
//   pairs      max(trials, 3) pairs; the arm that runs first alternates
//              per trial (test first on even trials), so the slightly
//              colder first slot of a pair lands on each side equally often;
//   delta      per pair, (base - test) / base in percent: positive means
//              the layer costs throughput. Adjacent trials see the same
//              machine state, so pairing cancels host drift that a best-of-
//              each comparison is exposed to; the median of the paired
//              deltas is the verdict's input;
//   verdict    ok when the median paired delta is <= threshold_pct.
//
// The arms themselves are the caller's: run_paired_ab only sequences them
// and scores what they return, so the protocol is unit-testable with fake
// arms (tests/test_harness.cpp).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "json.h"

namespace smr::harness {

/// Fewest measured pairs for which a median is meaningful.
inline constexpr int PAIRED_AB_MIN_TRIALS = 3;

struct paired_ab_result {
    int trials = 0;          // measured pairs (after the clamp to >= 3)
    int threshold_pct = 0;
    double test_best = 0;    // best throughput seen per arm
    double base_best = 0;
    double delta_pct = 0;    // median paired delta, percent of base
    bool ok = true;          // delta_pct <= threshold_pct
};

/// Runs the protocol above. `run_arm(bool test, int trial)` runs one trial
/// of one arm and returns its throughput; trial is -1 for the warm-up and
/// 0..trials-1 for the scored pairs (both arms of a pair see the same
/// index, so they can share a seed).
template <class RunArm>
paired_ab_result run_paired_ab(int trials, int threshold_pct,
                               RunArm&& run_arm) {
    paired_ab_result res;
    res.trials = std::max(trials, PAIRED_AB_MIN_TRIALS);
    res.threshold_pct = threshold_pct;
    (void)run_arm(false, -1);
    std::vector<double> deltas;
    for (int trial = 0; trial < res.trials; ++trial) {
        const bool test_first = trial % 2 == 0;
        const double first = run_arm(test_first, trial);
        const double second = run_arm(!test_first, trial);
        const double test = test_first ? first : second;
        const double base = test_first ? second : first;
        res.test_best = std::max(res.test_best, test);
        res.base_best = std::max(res.base_best, base);
        if (base > 0) deltas.push_back((base - test) / base * 100.0);
    }
    std::sort(deltas.begin(), deltas.end());
    res.delta_pct = deltas.empty() ? 0.0 : deltas[deltas.size() / 2];
    res.ok = res.delta_pct <= threshold_pct;
    return res;
}

/// The run-document point every overhead scenario emits: the two arms'
/// best throughputs under their own names ("<test>_mops", "<base>_mops"),
/// the median paired delta and the threshold it was judged against.
/// Scenario-specific extras (sample counts, events drained) are added by
/// the caller.
inline json paired_ab_point(const paired_ab_result& r,
                            const std::string& test_name,
                            const std::string& base_name,
                            const std::string& scheme, int threads) {
    json p = json::object();
    p.set("scheme", scheme);
    p.set("threads", threads);
    p.set(test_name + "_mops", r.test_best);
    p.set(base_name + "_mops", r.base_best);
    p.set("median_paired_delta_pct", r.delta_pct);
    p.set("threshold_pct", r.threshold_pct);
    return p;
}

}  // namespace smr::harness
