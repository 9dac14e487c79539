"""Fault models as the flip-flops they flip at the fault point of a cycle.

A transient on a clock buffer acts as a premature extra clock edge for every
flip-flop in that buffer's cone: each takes the value it would latch on an
edge (``enable ? D : Q``), so in two-valued logic its Q flips exactly when
its enable is on, or it has none, and its D differs from its Q. An upset
flips one flip-flop. Neither writes anything: each reads at most the settled
fault-free values of the cycle's checkpoint and returns an
``InjectionEffect``, the number of flip-flops reached and the names of those
whose value flipped, which ``campaign.run_group`` turns into the first
difference of the injection's lane from the fault-free run and the
per-flip-flop tallies count.
Both trust their target: before any injection runs, ``ClockTree`` has checked
every cone and ``campaign.run_specs`` every target (``check_targets``).
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
    settled: bytes,
    buffer_id: str,
) -> InjectionEffect:
    """Inject a clock transient on one buffer of the distribution network.

    Every flip-flop in the buffer's cone takes ``enable ? D : Q`` against
    the values ``settled`` of the current cycle; those it moves change.
    """
    cone = tree.cone(buffer_id)
    pins = [sim.pins[name] for name in cone]
    changed = tuple(name for name, (q, d, en) in zip(cone, pins)
                    if (en < 0 or settled[en]) and settled[d] != settled[q])
    return InjectionEffect(reached=len(cone), changed=changed)


def apply_seu(ff_name: str) -> InjectionEffect:
    """Flip one flip-flop's stored value."""
    return InjectionEffect(reached=1, changed=(ff_name,))
