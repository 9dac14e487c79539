"""Fault models applied to a settled simulation state.

A transient on a clock buffer acts as a premature extra clock edge for every
flip-flop in that buffer's cone: each one copies its input value to its
output ahead of the nominal edge (with enable honored as recirculation, so a
disabled flip-flop keeps its stored value). An upset flips one flip-flop's
stored value in place. Both models re-settle the combinational logic so the
rest of the cycle observes the corrupted values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .clocktree import ClockTree
from .netlist import Netlist
from .simulator import SimState, Simulator


class FaultKind(str, Enum):
    SET = "set"
    SEU = "seu"


class UnknownFlipFlopError(Exception):
    pass


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    target: str
    cycle: int


@dataclass(frozen=True)
class InjectionEffect:
    """Bookkeeping for one injection.

    ``reached`` lists every flip-flop the fault could touch, ``changed`` the
    ones whose stored value actually moved, ``unchanged`` the rest. The two
    always partition ``reached``; a flip-flop whose input equals its output
    is reached but unchanged, it is never dropped from the accounting.
    """

    reached: tuple[str, ...]
    changed: tuple[str, ...]
    unchanged: tuple[str, ...]


def _require_settled(netlist: Netlist, state: SimState) -> None:
    missing = set(netlist.nets) - set(state.net_values)
    if missing:
        raise ValueError(
            f"state is not settled ({len(missing)} nets have no value); "
            "settle before injecting"
        )


def _extract_inputs(netlist: Netlist, state: SimState) -> dict[str, int]:
    return {p: state.net_values[p] for p in netlist.inputs}


def _effective_d(ff, state: SimState) -> int:
    """Value the flip-flop would latch on an edge right now."""
    if ff.enable is not None and state.net_values[ff.enable] == 0:
        return state.ff_values[ff.name]
    return state.net_values[ff.d]


def apply_set(
    sim: Simulator,
    tree: ClockTree,
    state: SimState,
    buffer_id: str,
) -> tuple[SimState, InjectionEffect]:
    """Inject a clock transient on one buffer of the distribution network.

    Every flip-flop in the buffer's cone simultaneously takes the value it
    would latch on a clock edge, evaluated against the pre-injection state.
    Requires ``state`` to be combinationally settled for the current cycle.
    """
    netlist = sim.netlist
    _require_settled(netlist, state)
    cone = tree.cone(buffer_id)
    ff_map = netlist.ff_map()
    new_values = {}
    for name in cone:
        ff = ff_map.get(name)
        if ff is None:
            raise UnknownFlipFlopError(
                f"cone of '{buffer_id}' names flip-flop '{name}' "
                f"which is not in netlist '{netlist.name}'"
            )
        new_values[name] = _effective_d(ff, state)

    changed = tuple(n for n in cone if new_values[n] != state.ff_values[n])
    unchanged = tuple(n for n in cone if new_values[n] == state.ff_values[n])
    effect = InjectionEffect(reached=tuple(cone), changed=changed, unchanged=unchanged)

    ff_values = dict(state.ff_values)
    ff_values.update(new_values)
    settled = sim.settle(
        SimState(state.cycle, ff_values, {}), _extract_inputs(netlist, state)
    )
    return settled, effect


def apply_seu(
    sim: Simulator,
    state: SimState,
    ff_name: str,
) -> tuple[SimState, InjectionEffect]:
    """Flip one flip-flop's stored value in a settled state."""
    netlist = sim.netlist
    _require_settled(netlist, state)
    if ff_name not in state.ff_values:
        raise UnknownFlipFlopError(
            f"no flip-flop '{ff_name}' in netlist '{netlist.name}'"
        )
    ff_values = dict(state.ff_values)
    ff_values[ff_name] = ff_values[ff_name] ^ 1
    settled = sim.settle(
        SimState(state.cycle, ff_values, {}), _extract_inputs(netlist, state)
    )
    effect = InjectionEffect(reached=(ff_name,), changed=(ff_name,), unchanged=())
    return settled, effect

