"""Record a baseline: every workload, untraced and traced, into one file.

    python3 bench/record.py --seed 1 --seconds 15 --out bench/results/baseline.json

Besides the gated metrics, the record keeps each op's median time by label
(e.g. ``check_builder(mq_via_conjugation,2,5,0)``), which is how targets
stated for single operations are read off; those per-op times are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def _program_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def op_times(record) -> dict:
    by_label: dict[str, list[float]] = {}
    for p in record["passes"]:
        for op in p["ops"]:
            by_label.setdefault(op["label"], []).append(op["ms"])
    return {
        label: {"median_ms": statistics.median(ms), "count": len(ms)}
        for label, ms in sorted(by_label.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workloads = {}
    for w in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            deadline = time.monotonic() + run.RUN_LIMIT_S
            result, lines, record = run.run_workload(w, args.seed, args.seconds, bool(trace), deadline)
            print("\n".join(lines), flush=True)
            if not result["correct"]:
                print(f"error: {w} gave wrong answers", file=sys.stderr)
                return 1
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                entry["notes"] = [l for l in lines[1:] if not l.startswith("digest")]
                entry["attempted"] = result["attempted"]
                entry["failed"] = result["failed"]
                entry["digests"] = [p["digest"] for p in record["passes"]]
                entry["op_ms_by_label"] = op_times(record)
        workloads[w] = entry

    baseline = {
        "program_commit": _program_commit(),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "settings": {"seed": args.seed, "seconds": args.seconds},
        "workloads": workloads,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
