"""The two budgets every engine shares, read from here at call time.

Going past either raises CapExceededError, and only the two checks here
raise it.  The memory budget, BUDGET, bounds the items held at once; each
engine calls hold(items, what) with the count it is about to hold, before
it builds them.  It bounds the d^3 entries of a generated context's basis
table, the lines of a circuit that runs, the block values and the q x 2^k
modular-add codes of a gate kernel's per-value tables, the basis states a
branching state-vector step can reach (support x fan), the gate lines of a
built circuit, the nodes of a tensor graph, charged whole for the span
copies of a gate it lowers entry by entry, and the color terms its
amplitude DP holds.  The work budget, WORK, bounds the units one operation
spends, charged to a Work meter where the work is done: key-gate
applications in a state-vector run, path steps in a path sum, color-term
products in a graph DP and enumerated inputs in an equivalence check.
WORK also bounds, in 64-bit words, the columns an equivalence check runs
permutation gates on.
"""

from __future__ import annotations


BUDGET = 1 << 20
WORK = 1 << 24


class CapExceededError(RuntimeError):
    """A run would go past the memory budget or the work budget."""


def hold(items: int, what: str) -> None:
    """Refuse to hold `items` of `what` (a plural noun phrase) at once past
    BUDGET.  The message is formatted only on refusal, so a hot caller
    passes a constant or a string it built once."""
    if items > BUDGET:
        raise CapExceededError(f"{items} {what} exceed the memory budget of {BUDGET}")


class Work:
    """The work meter of one operation: `left` of its WORK units remain."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = WORK

    def charge(self, units: int, what: str) -> None:
        self.left -= units
        if self.left < 0:
            raise CapExceededError(f"{what} exceeds the work budget of {WORK} units")
