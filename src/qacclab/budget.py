"""The two budgets every engine shares, read from here at call time.

Going past either raises CapExceededError.  The memory budget, BUDGET,
bounds the items held at once: the d^3 entries of a generated context's
basis table (charged before the table is built), basis states in a state
vector, nodes in a tensor graph and the one-line operators of a gate it
lowers entry by entry, color terms in its amplitude DP, the lines of a
circuit that runs (checked before any key or graph is built), the entries
of a gate kernel's per-value tables (checked before any is built) and the
gate lines of a built circuit.  The work budget, WORK, bounds the units
one operation spends, charged to a Work meter where the work is done:
key-gate applications in a state-vector run, path steps in a path sum,
color-term products in a graph DP and enumerated inputs in an equivalence
check.  WORK also bounds, in 64-bit words, the columns an equivalence
check runs permutation gates on.
"""

from __future__ import annotations


BUDGET = 1 << 20
WORK = 1 << 24


class CapExceededError(RuntimeError):
    """A run would go past the memory budget or the work budget."""


class Work:
    """The work meter of one operation: `left` of its WORK units remain."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = WORK

    def charge(self, units: int, what: str) -> None:
        self.left -= units
        if self.left < 0:
            raise CapExceededError(f"{what} exceeds the work budget of {WORK} units")
