#!/usr/bin/env python3
"""smr_perf: one benchmark for the record_manager stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload update_churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs the output-check self-test, runs the workload, prints the
environment and every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit
code is non-zero when the build, the self-test, an output check or the span
check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 150  # with the self-test, within 180 s once built


def fail(msg):
    print(f"smr_perf: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "recordmgr", "record_manager.h")):
        fail("library sources (src/) not found; run from the root of a checkout")
    obj = os.path.join(build_dir, "perfbench")
    os.makedirs(obj, exist_ok=True)
    log_path = os.path.join(obj, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", obj, "--parallel", "2"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(obj, "smr_perf")


def source_digest(root):
    """sha256 over the library and benchmark sources (the checkout may not be
    a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def median(xs):
    return statistics.median(xs) if xs else None


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def end_to_end(doc):
    """Medians over the run's untraced trials."""
    trials = [t for t in doc["trials"] if not t["traced"]]
    values, notes = {}, {}
    values["throughput_mops"] = median([t["mops"] for t in trials])
    samples = sum(t["lat_samples"] for t in trials)
    for name, key in (("op_p50_ns", "p50_ns"), ("op_p99_ns", "p99_ns"),
                      ("op_p999_ns", "p999_ns")):
        present = [t[key] for t in trials if t[key]["present"]]
        values[name] = median([p["value"] for p in present])
        beyond = min((p["beyond"] for p in present), default=0)
        notes[name] = (f"median of {len(present)}/{len(trials)} trials, "
                       f"{samples} samples (1 in {doc['lat_sample_every']} ops), "
                       f">= {beyond} beyond per trial, clock {doc['build']['clock']}")
    values["footprint_mib"] = median([t["footprint_bytes"] / 2**20 for t in trials])
    values["setup_s"] = median([t["setup_s"] for t in trials])
    notes["setup_s"] = f"median of {len(trials)} set-ups"
    return values, notes


def run_workload(binary, root, build_dir, spec, layers, workload, args):
    """Runs one workload and prints its tables; returns (correct, attempted,
    failed, metrics)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{args.seed}.tsv")]
    run = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"benchmark produced no result (exit {run.returncode})")
    doc = json.loads(lines[-1])

    build_info = doc["build"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": doc["threads"],
        "cpu_model": build_info["cpu_model"],
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "ndebug": build_info["ndebug"],
        "git_commit": git_commit(root) or "unavailable (not a git checkout)",
        "source_sha256": source_digest(root),
        "seed": args.seed,
        "workload": workload,
        "trace": args.trace,
    }
    print("env: " + json.dumps(env))
    if not build_info["ndebug"]:
        fail("binary built without NDEBUG; refusing to record its numbers")

    attempted = sum(t["ops"] for t in doc["trials"])
    failed = sum(t["ops"] if not t["check_ok"] else t["late_ops"]
                 for t in doc["trials"])
    for i, t in enumerate(doc["trials"]):
        kind = "traced" if t["traced"] else "untraced"
        print(f"trial {i} ({kind}): {t['mops']:.4f} Mops/s, check {t['check']}")
    correct = bool(doc["correct"])

    metrics = {}
    if args.trace == 0:
        values, notes = end_to_end(doc)
        gated = [m["name"] for m in spec["end_to_end"]]
        missing = [k for k in gated if values[k] is None]
        if missing:
            fail("percentile missing (fewer than 10 samples beyond it in every "
                 "trial): " + ", ".join(missing))
        print(f"{'metric':<18} {'value':>14}  unit")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            note = notes.get(m["name"], "")
            print(f"{m['name']:<18} {fmt(v):>14}  {m['unit']:<7} {note}")
        # Printed, not gated: it follows the host more than the stack (on a
        # shared 4-vCPU host it moved 27% between two sets of runs in which
        # throughput moved 15%).
        p999 = values["op_p999_ns"]
        print(f"{'op_p999_ns':<18} {fmt(p999) if p999 is not None else 'missing':>14}"
              f"  ns      {notes['op_p999_ns']}; not gated")
        frac = failed / attempted if attempted else 0.0
        limit = (f", latency limit {doc['latency_limit_us'] / 1e3:g} ms from "
                 f"the intended start" if doc["offered_mops"] else "")
        print(f"{'ops_failed_frac':<18} {fmt(frac):>14}  ratio   "
              f"{failed} of {attempted} ops{limit}")
    else:
        per_layer = doc["per_layer"]
        chk = doc["span_check"]
        print(f"span check: {chk['ops']} sampled ops, {chk['spans']} spans, "
              f"{chk['violations']} violations {chk['first_violation']}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in chk["self_share"].items())
        print(f"self time of the {chk['op_span_ns_mean']:.0f} ns mean op span: "
              f"{shares} (sums to 100%); trace overhead "
              f"{per_layer['trace.overhead_frac']:.1%}")
        print(f"spans written to {os.path.relpath(chk['file'], root)}")
        print(f"{'metric':<28} {'value':>14}  {'unit':<10} should move")
        for m in spec["per_layer"]:
            v = per_layer[m["name"]]
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            where = layers[m["name"]]
            moves = ", ".join(where["moves"]) or "nothing"
            print(f"{m['name']:<28} {fmt(v):>14}  {m['unit']:<10} "
                  f"{moves} on {', '.join(where['on'])}")
    if not correct:
        print(f"smr_perf: {workload}: output or trace check FAILED",
              file=sys.stderr)
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found; run from the root of a checkout")
    with open(bench_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    t0 = time.monotonic()
    binary = build(root, build_dir)
    print(f"build: ok ({time.monotonic() - t0:.1f} s)")

    st = subprocess.run([binary, "--self-test"], capture_output=True, text=True,
                        timeout=20)
    sys.stdout.write(st.stdout)
    if st.returncode != 0:
        sys.stderr.write(st.stderr)
        fail("self-test failed: the output check is not trustworthy")

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            binary, root, build_dir, spec, layers, args.workload, args)
    else:
        # Every workload in turn; the result line names each metric
        # <workload>/<metric>.
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            print(f"== {name}")
            ok, att, fld, m = run_workload(binary, root, build_dir, spec,
                                           layers, name, args)
            correct, attempted, failed = correct and ok, attempted + att, failed + fld
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
