"""Every memory refusal goes through budget.hold: each site admits a run
at a budget equal to the count it holds and refuses it at one less, with
one message shape."""

import pathlib
import random

import pytest
from support import dp_held_terms, random_bits, random_circuit

from qacclab import budget
from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab import tensorgraph as tg
from qacclab import transforms as tf
from qacclab.algebra import get_context
from qacclab.algebra.context import cyclotomic_context
from qacclab.circuit import (
    AddBlockGate,
    Circuit,
    FourierGate,
    TensorLayer,
    ToffoliGate,
)


def _width():
    c = Circuit(5, 0, (), get_context("cyclotomic2"))
    return 5, lambda: sv.run(c, "00000")


def _block_values():
    return 8, lambda: cir.block_codes((0, 1, 2), 3)


def _adder_kernel():
    gate = AddBlockGate(3, (0, 1), (2, 3))  # 3 x 2^2 codes of its result block
    return 12, lambda: cir.permutation_action(gate, 4)


def _adder_columns():
    gate = AddBlockGate(3, (0, 1), (2, 3))
    return 12, lambda: cir.permutation_columns(gate, [0b01, 0b10, 0b11, 0], 0b11)


def _branching_step():
    # three H steps from one state: the last holds 4 states x 2 branches
    hs = TensorLayer(tuple(cir.hadamard_gate(l) for l in range(3)))
    c = Circuit(3, 0, (hs,), get_context("cyclotomic2"))
    return 8, lambda: sv.run(c, "000")


def _builder_lines():
    get_context("cyclotomic2")  # its table is held when first built, not here
    return 6, lambda: tf.builder_spec("f_from_fq", 1, 2)  # 2 (n + 1) + 2 n lines


def _context_table():
    return 4**3, lambda: cyclotomic_context(5)


def _graph_nodes():
    c = Circuit(2, 0, (TensorLayer((ToffoliGate((0,), 1),)),), get_context("cyclotomic2"))
    return 6, lambda: tg.tg_build(c, "10")


def _dense_copies():
    # 3 nodes, and 9 copies of the 3-node span for HQ 3's 10 entries
    fourier = TensorLayer((FourierGate(3, (0, 1)),))
    g = tg.tg_init("00", get_context("cyclotomic3"))
    return 30, lambda: tg.apply_layer(g, fourier)


def _dp_terms():
    rng = random.Random(11)
    ctx = get_context("cyclotomic2")
    c = random_circuit(rng, 6, 4, ctx)
    x = random_bits(rng, 6)
    g = tg.tg_build(c, x)
    z = cir.key_to_bits(sv.run(c, x).support()[0], 6)
    peak, _every = dp_held_terms(g, z)
    return peak, lambda: tg.tg_amplitude_dp(g, z)


SITES = {
    "circuit lines": _width,
    "block values": _block_values,
    "modular-add codes": _adder_kernel,
    "modular-add columns": _adder_columns,
    "branching step": _branching_step,
    "builder gate lines": _builder_lines,
    "context table": _context_table,
    "graph nodes": _graph_nodes,
    "dense span copies": _dense_copies,
    "dp color terms": _dp_terms,
}


@pytest.mark.parametrize("site", SITES)
def test_each_site_admits_its_count_and_refuses_one_less(site, monkeypatch):
    count, run = SITES[site]()  # set up at the full budget
    assert count > 1
    monkeypatch.setattr(budget, "BUDGET", count)
    run()
    monkeypatch.setattr(budget, "BUDGET", count - 1)
    shape = rf"^{count} \S.* exceed the memory budget of {count - 1}$"
    with pytest.raises(budget.CapExceededError, match=shape):
        run()


def test_only_the_budget_module_raises_a_budget_refusal():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "qacclab"
    raisers = [p.name for p in src.rglob("*.py") if "raise CapExceededError" in p.read_text()]
    assert raisers == ["budget.py"]
