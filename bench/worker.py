"""One pass of one workload, in a fresh interpreter.

Run by run.py, never imported by it:

    python3 bench/worker.py --workload W --seed S --pass-index I [--trace] [--setup-only]

The worker imports qacclab and builds every context the workload uses,
then prints ``ready`` (run.py times set-up up to that line).  It generates
the pass's inputs from (workload, seed, pass index), times each top-level
operation, notes its peak memory, and only then checks every output
exactly against an independent result.  The last stdout line is a JSON
record of the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)

CONTEXTS = {
    "equiv-fourier": ("cyclotomic2", "cyclotomic3", "cyclotomic5", "cyclotomic7"),
    "equiv-perm": ("cyclotomic2", "cyclotomic3", "cyclotomic5", "cyclotomic7"),
    "graph-amp": ("cyclotomic2",),
    "algebra-products": (
        "rational10", "cyclotomic2", "cyclotomic3", "cyclotomic5", "cyclotomic7",
    ),
}


def setup(workload: str):
    """Everything a workload needs before its first timed op."""
    from qacclab import cli, dsl, statevec, tensorgraph, transforms  # noqa: F401
    from qacclab.algebra import get_context

    for name in CONTEXTS[workload]:
        get_context(name)


class Mismatch(AssertionError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _poly_json(p: dict) -> list:
    return sorted([list(e), c] for e, c in p.items() if c)


# -- per-kind operations ----------------------------------------------------------
#
# Each kind has prepare (untimed: turns generated data into program inputs),
# run (the timed top-level operation), and verify (untimed, after every op
# of the pass: exact checks, returning the exact results for the digest).


def _builder_items(op: dict, lines_compared: int) -> int:
    from qacclab import transforms

    spec = transforms.BUILDERS[op["builder"]]
    if spec.inputs is None:
        return 1 << lines_compared
    return sum(1 for _ in spec.inputs(op["n"], op["q"]))


class BuilderCheck:
    """``qacc check --builder B --n N --q Q --r R --json`` through cli.main."""

    @staticmethod
    def label(op):
        return f"check_builder({op['builder']},{op['n']},{op['q']},{op['r']})"

    @staticmethod
    def prepare(op):
        return [
            "check", "--builder", op["builder"], "--n", str(op["n"]),
            "--q", str(op["q"]), "--r", str(op["r"]), "--json",
        ]

    @staticmethod
    def run(argv):
        from qacclab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code in (2, 3):  # usage/input error or a cap exceeded: the op failed
            raise RuntimeError(f"qacc check exited {code}")
        return code, out.getvalue()

    @staticmethod
    def items(op, result):
        return _builder_items(op, json.loads(result[1])["lines_compared"])

    @staticmethod
    def verify(op, result):
        code, text = result
        _expect(code == 0, f"qacc check exited {code}: {text.strip()}")
        report = json.loads(text)
        _expect(report["verdict"] == "equivalent", f"verdict {report['verdict']}")
        _expect(report["aux_restored"] is True, "auxiliary lines not restored")
        return report


class BlockCheck:
    """A random q-ary block circuit against its expand_addmod lowering."""

    @staticmethod
    def label(op):
        return f"blocks(q={op['q']},lines={op['width']})"

    @staticmethod
    def prepare(op):
        from qacclab import dsl

        return dsl.parse_circuit(op["dsl"])

    @staticmethod
    def run(c):
        from qacclab import transforms

        lowered = transforms.expand_addmod(c)
        return transforms.equivalence_check(c, lowered, c.width)

    @staticmethod
    def items(op, report):
        return 1 << report.lines_compared

    @staticmethod
    def verify(op, report):
        _expect(report.verdict == "equivalent", f"verdict {report.verdict}")
        _expect(report.aux_restored, "auxiliary lines not restored")
        return report.to_json()


class GraphAmplitudes:
    """DSL text -> parse -> tg_build -> DP amplitude per target, plus path
    sums wherever the path count is within the program's cap."""

    @staticmethod
    def label(op):
        return f"graph[{op['index']}]({op['layout']},lines={op['lines']})"

    @staticmethod
    def prepare(op):
        return op

    @staticmethod
    def run(op):
        from qacclab import dsl, tensorgraph as tg

        c = dsl.parse_circuit(op["dsl"])
        g = tg.tg_build(c, op["input"])
        dp = [tg.tg_amplitude_dp(g, t) for t in op["targets"]]
        n_paths = tg.tg_path_count(g)
        paths = None
        if n_paths <= tg.PATH_CAP_DEFAULT:
            paths = [tg.tg_amplitude_paths(g, t) for t in op["targets"]]
        return {"circuit": c, "graph": g, "dp": dp, "paths": paths, "path_count": n_paths}

    @staticmethod
    def items(op, result):
        return len(result["dp"])

    @staticmethod
    def verify(op, result):
        from qacclab import statevec

        state = statevec.run(result["circuit"], op["input"])
        out = []
        for i, target in enumerate(op["targets"]):
            want = state.amplitude_of(target)
            got = result["dp"][i]
            _expect(got == want, f"DP amplitude of {target} differs from the oracle")
            if result["paths"] is not None:
                _expect(result["paths"][i] == got, f"path sum of {target} differs from DP")
            out.append(got.to_json())
        return out


def _scalar(ctx, coords):
    from qacclab.algebra import ExactScalar, FScalar, polys

    return ExactScalar(ctx, [FScalar(polys.const(0, a), r) for a, r in coords])


class ScalarProduct:
    """Iterated sum and product of exact scalars; the product by the table
    fold and by g_interpolated_product."""

    @staticmethod
    def label(op):
        return f"scalar({op['context']},k={len(op['factors'])})"

    @staticmethod
    def prepare(op):
        from qacclab.algebra import get_context

        ctx = get_context(op["context"])
        return [_scalar(ctx, f) for f in op["factors"]]

    @staticmethod
    def run(xs):
        from qacclab.algebra import g_interpolated_product, g_iterated_product, g_iterated_sum

        return g_iterated_sum(xs), g_iterated_product(xs), g_interpolated_product(xs)

    @staticmethod
    def items(op, result):
        return 1

    @staticmethod
    def verify(op, result):
        total, table, interp = result
        _expect(table == interp, "interpolated product differs from the table fold")
        u = gen.SCALAR_CONTEXTS[op["context"]][0]
        want = [
            sum(Fraction(f[j][0], u ** f[j][1]) for f in op["factors"])
            for j in range(len(op["factors"][0]))
        ]
        got = [
            Fraction(c.num[()], u ** c.r) if not c.is_zero() else Fraction(0)
            for c in total.coords
        ]
        _expect(got == want, "iterated sum differs from the coordinate-wise sum")
        return [total.to_json(), table.to_json()]


class IpolyProduct:
    """2-variate integer polynomial product, direct and interpolated."""

    @staticmethod
    def label(op):
        return f"ipoly(k={len(op['factors'])})"

    @staticmethod
    def prepare(op):
        from qacclab.algebra import LatticeSpec

        factors = [{tuple(e): c for e, c in f} for f in op["factors"]]
        return factors, LatticeSpec(2, gen.IPOLY_DEGREE_BOUND)

    @staticmethod
    def run(prepared):
        from qacclab.algebra import (
            ipoly_direct_product, ipoly_interpolated_product, ipoly_iterated_sum,
        )

        factors, spec = prepared
        return (
            ipoly_iterated_sum(factors, 2),
            ipoly_direct_product(factors, 2),
            ipoly_interpolated_product(factors, spec),
        )

    @staticmethod
    def items(op, result):
        return 1

    @staticmethod
    def verify(op, result):
        total, direct, interp = result
        _expect(_poly_json(direct) == _poly_json(interp), "interpolated product differs from direct")
        want: dict = {}
        for f in op["factors"]:
            for e, c in f:
                want[tuple(e)] = want.get(tuple(e), 0) + c
        _expect(_poly_json(total) == _poly_json(want), "iterated sum differs")
        return [_poly_json(total), _poly_json(direct)]


KINDS = {
    "builder": BuilderCheck,
    "blocks": BlockCheck,
    "graph": GraphAmplitudes,
    "scalar": ScalarProduct,
    "ipoly": IpolyProduct,
}


# -- tracing --------------------------------------------------------------------


class LayerStats:
    """Counters observed on traced calls' results."""

    def __init__(self):
        self.coeff_bits_max = 0
        self.r_max = 0
        self.support_max = 0
        self.support_sum = 0

    def scalar(self, result, _args):
        for c in result.coords:
            if c.r > self.r_max:
                self.r_max = c.r
            for v in c.num.values():
                bits = abs(v).bit_length()
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    def state(self, result, _args):
        n = len(result.entries)
        self.support_sum += n
        if n > self.support_max:
            self.support_max = n


def _tg_layer_name(args):
    from qacclab.circuit import TensorLayer

    return "tensorgraph.layer_tensor" if isinstance(args[1], TensorLayer) else "tensorgraph.layer_cnot"


def install_tracer(tracer, stats: LayerStats) -> None:
    from qacclab import circuit, cli, dsl, statevec, tensorgraph, transforms
    from qacclab.algebra import interpolation, scalars

    tracer.install(scalars, "ExactScalar.__mul__", "algebra.mul", stats.scalar)
    for attr in ("ExactScalar.__add__", "ExactScalar.__sub__"):
        tracer.install(scalars, attr, "algebra.add", stats.scalar)
    for attr in ("ExactScalar.key", "ExactScalar.__hash__"):
        tracer.install(scalars, attr, "algebra.key")
    tracer.install(interpolation, "lagrange_basis", "algebra.interp.basis")
    tracer.install(interpolation, "g_interpolated_product", "algebra.interp.product")
    tracer.install(interpolation, "ipoly_interpolated_product", "algebra.interp.product")
    tracer.install(scalars, "g_iterated_product", "algebra.direct.product")
    tracer.install(interpolation, "ipoly_direct_product", "algebra.direct.product")
    tracer.install(circuit, "validate", "circuit.validate")
    tracer.install(circuit, "permutation_action", "circuit.gate_action")
    tracer.install(circuit, "apply_gate_to_basis", "circuit.gate_action")
    tracer.install(statevec, "run", "statevec.run", stats.state)
    tracer.install(tensorgraph, "tg_build", "tensorgraph.build")
    tracer.install(tensorgraph, "apply_layer", _tg_layer_name)
    tracer.install(tensorgraph, "tg_amplitude_dp", "tensorgraph.dp")
    tracer.install(tensorgraph, "tg_amplitude_paths", "tensorgraph.paths")
    tracer.install(tensorgraph, "tg_path_count", "tensorgraph.paths")
    tracer.install(transforms, "equivalence_check", "transforms.check")
    tracer.install(transforms, "check_builder", "transforms.check")
    tracer.install(dsl, "parse_circuit", "dsl.parse")
    tracer.install(cli, "main", "cli.main")


def graph_stats(g) -> dict:
    """Size of a built graph, taken outside the timed region."""
    from qacclab import tensorgraph as tg

    m = tg.tg_metrics(g)
    dead = sum(1 for _dst, _p, a0, a1 in g.vout.values() if a0.is_zero() and a1.is_zero())
    return {
        "nodes": len(g.nodes),
        "width": m.width,
        "color_depth": m.color_depth,
        "vedges": len(g.vout),
        "dead_vedges": dead,
    }


# -- the pass ---------------------------------------------------------------------


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, spans_path: str | None):
    ops = gen.make_pass(workload, seed, pass_index)
    tracer = stats = None
    if trace:
        from tracer import Tracer

        tracer, stats = Tracer(), LayerStats()
        install_tracer(tracer, stats)
    paused = tracer.paused if tracer else contextlib.nullcontext
    clock = time.perf_counter
    records, results = [], []
    graphs = {"nodes_sum": 0, "nodes_max": 0, "width_max": 0, "color_depth_max": 0,
              "vedges": 0, "dead_vedges": 0, "path_count_sum": 0}
    for op in ops:
        kind = KINDS[op["kind"]]
        with paused():
            prepared = kind.prepare(op)
        rec = {"label": kind.label(op), "kind": op["kind"], "items": 0, "failed": False}
        t0 = clock()
        try:
            result = kind.run(prepared)
        except Exception as exc:  # a raising op is counted as failed, not fatal
            rec["ms"] = (clock() - t0) * 1e3
            rec["failed"] = True
            rec["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        else:
            rec["ms"] = (clock() - t0) * 1e3
            rec["items"] = kind.items(op, result)
        if op["kind"] == "graph" and result is not None:
            graphs["path_count_sum"] += result["path_count"]
            if trace:
                with paused():
                    gs = graph_stats(result["graph"])
                graphs["nodes_sum"] += gs["nodes"]
                graphs["nodes_max"] = max(graphs["nodes_max"], gs["nodes"])
                graphs["width_max"] = max(graphs["width_max"], gs["width"])
                graphs["color_depth_max"] = max(graphs["color_depth_max"], gs["color_depth"])
                graphs["vedges"] += gs["vedges"]
                graphs["dead_vedges"] += gs["dead_vedges"]
            result["graph"] = None
        records.append(rec)
        results.append(result)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    mismatches = []
    digest = hashlib.sha256()
    with paused():
        for op, rec, result in zip(ops, records, results):
            if result is None:
                digest.update(b"failed\n")
                continue
            try:
                exact = KINDS[op["kind"]].verify(op, result)
            except Mismatch as exc:
                mismatches.append(f"{rec['label']}: {exc}")
                exact = None
            digest.update(_canon(exact).encode() + b"\n")

    out = {
        "ops": records,
        "peak_rss_kb": peak_rss_kb,
        "digest": digest.hexdigest(),
        "mismatches": mismatches,
    }
    if trace:
        tracer.uninstall()
        out["spans"] = tracer.summary()
        out["layer"] = {
            "coeff_bits_max": stats.coeff_bits_max,
            "r_max": stats.r_max,
            "support_max": stats.support_max,
            "support_sum": stats.support_sum,
            **graphs,
            "inputs_compared": sum(
                r["items"] for r in records if r["kind"] in ("builder", "blocks")
            ),
        }
        if spans_path:
            tracer.dump(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.PASS_GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the raw spans of a traced pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    out = run_pass(args.workload, args.seed, args.pass_index, args.trace, args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
