"""Tests of the benchmark's own machinery (not of the program it measures).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402  (puts the program's src/ on sys.path)
from tracer import Tracer  # noqa: E402


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.PASS_GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    first = gen.make_pass(workload, 7, 2)
    assert gen.make_pass(workload, 7, 2) == first
    assert json.dumps(first)  # inputs are plain data, handed over as text
    assert gen.make_pass(workload, 8, 2) != first
    assert gen.make_pass(workload, 7, 3) != first


def test_graph_circuits_cover_both_layouts_and_sizes():
    ops = gen.make_pass("graph-amp", 1, 0)
    assert {op["layout"] for op in ops} == {"scattered", "contiguous"}
    assert all(16 <= op["lines"] <= 20 for op in ops)
    assert all(len(t) == op["lines"] for op in ops for t in op["targets"])


def test_ipoly_products_fit_the_lattice():
    for op in gen.make_pass("algebra-products", 3, 0):
        if op["kind"] == "ipoly":
            degree = sum(max(sum(e) for e, _ in f) for f in op["factors"])
            assert degree <= gen.IPOLY_DEGREE_BOUND


# -- tracing -----------------------------------------------------------------------


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    t = Tracer()
    root = t.record("root", -1, 0.0, 10.0)
    a = t.record("a", root, 1.0, 4.0)
    t.record("leaf", a, 2.0, 2.5)
    b = t.record("b", root, 5.0, 9.0)
    t.record("leaf", b, 6.0, 7.0)
    s = t.summary()
    assert s["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert s["a"]["self_s"] == pytest.approx(2.5)
    assert s["b"]["self_s"] == pytest.approx(3.0)
    assert s["leaf"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}


def test_wrapped_spans_nest_and_observers_stay_out_of_self_time():
    # outer: 0..10 calls inner: 2..5; inner's observer runs 5..6
    t = Tracer(clock=_fake_clock([0.0, 2.0, 5.0, 6.0, 10.0]))
    seen = []
    inner = t.wrap(lambda x: x + 1, "inner", observe=lambda r, args: seen.append(r))
    outer = t.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    assert seen == [4]
    s = t.summary()
    assert s["inner"]["self_s"] == 3.0
    assert s["trace.observe"]["self_s"] == 1.0
    assert s["outer"]["self_s"] == 6.0


def test_span_name_can_depend_on_arguments():
    t = Tracer()
    f = t.wrap(lambda kind: kind, lambda args: f"layer_{args[0]}")
    f("tensor"), f("cnot"), f("cnot")
    s = t.summary()
    assert s["layer_tensor"]["calls"] == 1 and s["layer_cnot"]["calls"] == 2


def test_paused_tracer_records_nothing():
    t = Tracer()
    f = t.wrap(lambda: 1, "f")
    with t.paused():
        assert f() == 1
    assert t.summary() == {}


def _exact_results():
    from qacclab import dsl, statevec, tensorgraph as tg, transforms
    from qacclab.algebra import get_context, g_interpolated_product, g_iterated_product

    report = transforms.check_builder("mq_via_conjugation", 1, 3)
    op = gen.make_pass("graph-amp", 5, 0)[1]
    c = dsl.parse_circuit(op["dsl"])
    g = tg.tg_build(c, op["input"])
    amps = [tg.tg_amplitude_dp(g, t).to_json() for t in op["targets"]]
    state = statevec.run(c, op["input"]).to_json()
    ctx = get_context("cyclotomic3")
    xs = [ctx.basis_element(1), ctx.from_int(3), ctx.basis_element(2)]
    return [
        report.to_json(), amps, state,
        g_iterated_product(xs).to_json(), g_interpolated_product(xs).to_json(),
    ]


def test_wrapped_functions_return_exactly_what_the_originals_do():
    from qacclab import statevec, transforms
    from qacclab.algebra import scalars

    plain = _exact_results()
    originals = (statevec.run, transforms.run, scalars.ExactScalar.__dict__["__mul__"])
    t = Tracer()
    worker.install_tracer(t, worker.LayerStats())
    try:
        assert transforms.run is statevec.run is not originals[0]
        traced = _exact_results()
    finally:
        t.uninstall()
    assert traced == plain
    assert (statevec.run, transforms.run, scalars.ExactScalar.__dict__["__mul__"]) == originals
    s = t.summary()
    assert s["algebra.mul"]["calls"] > 0 and s["circuit.validate"]["calls"] > 0


# -- statistics --------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(100, 90, 90), (1000, 99, 990), (10000, 99.9, 9990), (20, 50, 10), (40, 75, 30)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, rank):
    values = list(range(n, 0, -1))
    p, value, beyond = stats.tail(values)
    assert (p, value, beyond) == (percentile, rank, n - rank)
    assert beyond >= 10


def test_tail_with_few_samples_is_the_median():
    assert stats.tail(list(range(1, 16))) == (50, 8, 7)


# -- the benchmark's contract --------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    for section in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        assert declared == [(m["name"], m["unit"], m["better"]) for m in metrics[section]]
    assert [w["name"] for w in bench["workloads"]] == [w["name"] for w in metrics["workloads"]]
    assert [w["name"] for w in bench["workloads"]] == list(gen.PASS_GENERATORS)


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "equiv-perm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_one_pass_checks_and_digests_its_outputs():
    out = worker.run_pass("algebra-products", 2, 0, trace=False, spans_path=None)
    again = worker.run_pass("algebra-products", 2, 0, trace=False, spans_path=None)
    assert out["mismatches"] == [] and out["digest"] == again["digest"]
    assert all(not op["failed"] and op["items"] == 1 for op in out["ops"])
    assert len(out["ops"]) == len(gen.make_pass("algebra-products", 2, 0))
