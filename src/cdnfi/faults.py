"""Fault models written into the kernel's value list mid-cycle.

A transient on a clock buffer acts as a premature extra clock edge for every
flip-flop in that buffer's cone: ``Simulator.clock`` latches the cone, each
flip-flop copying its input value to its output (a disabled one keeps its
stored value). An upset flips one flip-flop's stored value in place. Both
write Q slots only; ``Simulator.tick_diff`` then settles the differences
they made, so the rest of the cycle observes the corrupted values. Each
returns an ``InjectionEffect``: the number of flip-flops reached, and the
names of those whose value changed, which the per-flip-flop tallies need.
Both trust their target: ``campaign.run_specs`` checks every target of a
campaign with ``check_targets`` before any injection runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .clocktree import ClockTree
from .simulator import Simulator


class FaultKind(str, Enum):
    SET = "set"
    SEU = "seu"


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    target: str
    cycle: int


@dataclass(frozen=True)
class InjectionEffect:
    """Bookkeeping for one injection.

    ``reached`` counts the flip-flops the fault could touch, ``changed``
    names the ones whose stored value actually moved, in cone order. The
    other ``reached - len(changed)`` are unchanged: a flip-flop whose input
    equals its output is reached but unchanged, never dropped from the
    accounting.
    """

    reached: int
    changed: tuple[str, ...]


def apply_set(
    sim: Simulator,
    tree: ClockTree,
    v: list[int],
    buffer_id: str,
) -> InjectionEffect:
    """Inject a clock transient on one buffer of the distribution network.

    Every flip-flop in the buffer's cone simultaneously takes the value it
    would latch on a clock edge, evaluated against the settled values ``v``
    of the current cycle; only the cone's Q slots of ``v`` are written.
    """
    cone = tree.cone(buffer_id)
    pins = [sim.pins[name] for name in cone]
    before = [v[q] for q, _, _ in pins]
    sim.clock(v, pins)
    changed = tuple(name for name, (q, _, _), bit in zip(cone, pins, before) if v[q] != bit)
    return InjectionEffect(reached=len(cone), changed=changed)


def apply_seu(sim: Simulator, v: list[int], ff_name: str) -> InjectionEffect:
    """Flip one flip-flop's stored value, its Q slot in ``v``."""
    q, _, _ = sim.pins[ff_name]
    v[q] ^= 1
    return InjectionEffect(reached=1, changed=(ff_name,))
