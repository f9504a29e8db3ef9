"""Benchmark entry point: one workload (or all four), measured end to end.

    python3 bench/run.py --workload equiv-fourier --seed 1 --seconds 25 --trace 0

Every pass of a workload runs in a fresh interpreter (bench/worker.py), one
at a time, so the program's process-lifetime caches start cold in each
pass just as in every ``qacc`` invocation.  Pass i's inputs come from
(seed, i).  The number of passes is --seconds divided by the workload's
nominal pass time (PASS_SECONDS, measured at the baseline), so a run lasts
about --seconds there and every commit measures exactly the same work:
a faster program finishes sooner instead of sampling more inputs.  Only
when passes run long (a slower host, or a traced run) does a run stop
early, after at least MIN_PASSES passes, to end within OVERRUN times
--seconds.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run: each pass runs twice, untraced and then traced, and the
ratio of their throughputs is the tracing overhead.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A wrong answer
prints correct=false and exits 1; a run that cannot be made (no program
source, a crashed or hung worker) exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402

WORKLOADS = ("equiv-fourier", "equiv-perm", "graph-amp", "algebra-products")
MIN_PASSES = 2
# Run seconds budgeted per pass: about the wall time of one pass (process
# start, set-up, timed ops, checks) at the baseline on a 2-core machine, so
# a run lasts about --seconds there; graph-amp's is about twice its pass
# time.  The host alternates between a fast and a slow phase, so an order
# statistic that falls in the middle of many samples of one op jumps between
# the phases.  At 25 s these values put op_tail_ms among the q=7 block
# checks and the q=7 grid point (equiv-fourier, 6 passes), among the 12
# checks of mq_from_modq(11,2) and the slower modqr_from_modq ones
# (equiv-perm), on the fastest of 12 samples of the slowest circuit
# (graph-amp, where 28 passes put it mid-way) and at the slow end of the
# polynomial products (algebra-products).
PASS_SECONDS = {
    "equiv-fourier": 4.2,
    "equiv-perm": 2.1,
    "graph-amp": 2.1,
    "algebra-products": 5.0,
}
SETUP_SAMPLES = 15
# No pass starts that would end past OVERRUN times --seconds, so a run's
# length stays bounded on a host slower than the baseline's.
OVERRUN = 1.3
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
SPANS_DIR = os.path.join(ROOT, ".bench_out")

with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as _fh:
    METRICS = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in METRICS["end_to_end"] + METRICS["per_layer"]}


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def spawn(workload, seed, pass_index, deadline, trace=False, setup_only=False, spans=None):
    """Run one worker; returns (set-up seconds, pass record or None)."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(pass_index),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the pass could start")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(cmd[1:])} failed with exit code {code}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def pass_indices(workload: str, seconds: float):
    """The pass indices of a run: pass_count of them, fewer only when the
    next pass, as long as the longest so far, would end past OVERRUN times
    --seconds (a host slower than the baseline's, or a traced run)."""
    end = time.monotonic() + seconds * OVERRUN
    longest = 0.0
    for i in range(pass_count(workload, seconds)):
        start = time.monotonic()
        if i >= MIN_PASSES and start + longest > end:
            return
        yield i
        longest = max(longest, time.monotonic() - start)


def _metric(name, value):
    return {"value": value, "unit": UNITS[name]}


def end_to_end(passes, setups):
    ops = [op for p in passes for op in p["ops"]]
    ms = [op["ms"] for op in ops]
    items = sum(op["items"] for op in ops)
    timed_s = sum(ms) / 1e3
    p, tail_ms, beyond = stats.tail(ms)
    rss = [p_["peak_rss_kb"] / 1024 for p_ in passes]
    failed = sum(op["failed"] for op in ops)
    values = {
        "setup_s": statistics.median(setups),
        # all items over all timed seconds: the host's fast and slow phases
        # shift a ratio of sums in proportion to their mix, where a median
        # of per-pass rates jumps between them
        "items_per_s": items / timed_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "items_per_s": f"{items} items in {timed_s:.3f} s timed over {len(passes)} passes",
        "op_p50_ms": f"{len(ops)} ops",
        "op_tail_ms": f"p{p:g}, {beyond} of {len(ops)} ops beyond",
        "peak_rss_mb": f"median of {len(rss)} processes",
    }
    human = [f"{k:<12} {v:>12.4f} {UNITS[k]:<8} ({notes[k]})" for k, v in values.items()]
    frac = failed / len(ops)
    human.append(f"{'failed_frac':<12} {frac:>12.4f} {'ratio':<8} ({failed} of {len(ops)} ops raised)")
    return {k: _metric(k, v) for k, v in values.items()}, human


def _rate(passes):
    ops = [op for p in passes for op in p["ops"]]
    return sum(op["items"] for op in ops) / (sum(op["ms"] for op in ops) / 1e3)


def per_layer(traced, untraced):
    spans: dict[str, dict] = {}
    for p in traced:
        for name, rec in p["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    layer: dict[str, float] = {}
    for key in traced[0]["layer"]:
        vals = [p["layer"][key] for p in traced]
        layer[key] = max(vals) if key.endswith("_max") else sum(vals)

    values = {}
    for group in (
        "algebra.mul", "algebra.add", "circuit.validate", "circuit.gate_action",
        "statevec.run", "tensorgraph.dp", "tensorgraph.paths", "transforms.check",
        "dsl.parse", "cli.main",
    ):
        values[f"{group}.calls"] = span(group, "calls")
        values[f"{group}.self_s"] = span(group, "self_s")
    values["algebra.key.calls"] = span("algebra.key", "calls")
    values["algebra.coeff_bits_max"] = layer["coeff_bits_max"]
    values["algebra.r_max"] = layer["r_max"]
    values["algebra.interp.basis_s"] = span("algebra.interp.basis", "total_s")
    values["algebra.interp.product_s"] = span("algebra.interp.product", "total_s") - span(
        "algebra.interp.basis", "total_s"
    )
    values["algebra.direct.product_s"] = span("algebra.direct.product", "total_s")
    values["statevec.support_max"] = layer["support_max"]
    values["statevec.support_sum"] = layer["support_sum"]
    values["tensorgraph.build.self_s"] = span("tensorgraph.build", "self_s")
    values["tensorgraph.layer_tensor.self_s"] = span("tensorgraph.layer_tensor", "self_s")
    values["tensorgraph.layer_cnot.self_s"] = span("tensorgraph.layer_cnot", "self_s")
    for key in ("nodes_sum", "nodes_max", "width_max", "color_depth_max", "vedges",
                "dead_vedges", "path_count_sum"):
        values[f"tensorgraph.{key}"] = layer[key]
    values["tensorgraph.dead_vedge_ratio"] = (
        layer["dead_vedges"] / layer["vedges"] if layer["vedges"] else 0.0
    )
    values["transforms.inputs_compared"] = layer["inputs_compared"]
    values["trace.observe.self_s"] = span("trace.observe", "self_s")
    values["trace.overhead_ratio"] = _rate(traced) / _rate(untraced)

    human = [f"{k:<34} {v:>16.6g} {UNITS[k]}" for k, v in values.items()]
    human.append(
        f"(over {len(traced)} traced passes; dead vertical edges "
        f"{layer['dead_vedges']} of {layer['vedges']})"
    )
    return {k: _metric(k, v) for k, v in values.items()}, human


def run_workload(workload, seed, seconds, trace, deadline):
    """Returns (result dict, human-readable lines, detailed record)."""
    setups, passes, traced = [], [], []
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        for i in pass_indices(workload, seconds):
            s, p = spawn(workload, seed, i, deadline)
            setups.append(s)
            passes.append(p)
            # raw spans of the first traced pass only: tens of MB on equiv-fourier
            spans = os.path.join(SPANS_DIR, f"spans-{workload}.bin") if i == 0 else None
            s, p = spawn(workload, seed, i, deadline, trace=True, spans=spans)
            traced.append(p)
    else:
        for i in pass_indices(workload, seconds):
            s, p = spawn(workload, seed, i, deadline)
            setups.append(s)
            passes.append(p)
        while len(setups) < SETUP_SAMPLES:
            s, _ = spawn(workload, seed, 0, deadline, setup_only=True)
            setups.append(s)

    every = passes + traced
    ops = [op for p in every for op in p["ops"]]
    mismatches = [m for p in every for m in p["mismatches"]]
    mismatches += [
        f"pass {i}: traced results differ from untraced ones"
        for i, (p, t) in enumerate(zip(passes, traced))
        if p["digest"] != t["digest"]
    ]
    failed = sum(op["failed"] for op in ops)
    if trace:
        metrics, human = per_layer(traced, passes)
    else:
        metrics, human = end_to_end(passes, setups)
    head = (
        f"# {workload}: seed {seed}, {len(every)} passes, {len(ops)} ops, "
        f"{failed} failed, {len(mismatches)} wrong"
    )
    lines = [head] + human
    lines += [f"digest pass {i}: {p['digest']}" for i, p in enumerate(passes)]
    lines += [f"error: {op['label']}: {op['error']}" for op in ops if op["failed"]]
    lines += [f"WRONG: {m}" for m in mismatches]
    result = {
        "correct": not mismatches,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "setup_samples_s": setups,
        "passes": [
            {"digest": p["digest"], "peak_rss_kb": p["peak_rss_kb"], "ops": p["ops"]}
            for p in passes
        ],
        **result,
    }
    return result, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qacclab", "__init__.py")):
        print(f"error: no program source under {ROOT}/src/qacclab", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    results = {}
    try:
        for w in workloads:
            result, lines, _ = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
            results[w] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
