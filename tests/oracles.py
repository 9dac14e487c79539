"""Reference semantics the production engine is checked against.

``Stepper`` is a reference simulator: ``reset``, ``settle`` and
``step_cycle`` on a ``SimState`` of name-keyed dicts, with its own gate table
and its own latch rule. It orders its gates itself, by a depth-first walk
back through each gate's fan-in, not by logic level. Of ``cdnfi`` it uses
only the netlist data model, so it shares no code with the compiled kernel
in ``cdnfi.simulator`` or with the logic levels ``cdnfi.netlist`` computes,
and a fault there cannot pass on both sides.
``explicit_pulse_oracle`` is an independent formulation of a clock transient
and ``replay_injection`` the full step-by-step replay an injection is defined
by; both run on the stepper and share no code with ``cdnfi.faults``.
``fault_on_state`` runs a production fault function on a settled
``SimState``, so its result can be compared with theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from cdnfi.campaign import Classification, InjectionRecord
from cdnfi.clocktree import ClockTree
from cdnfi.faults import FaultKind, FaultSpec, InjectionEffect
from cdnfi.netlist import FlipFlop, Gate, Netlist
from cdnfi.simulator import GoldenTrace, Simulator, Stimulus

_GATES = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "NAND": lambda a, b: 1 - (a & b),
    "NOR": lambda a, b: 1 - (a | b),
    "XOR": lambda a, b: a ^ b,
    "XNOR": lambda a, b: 1 - (a ^ b),
    "NOT": lambda a: 1 - a,
    "BUF": lambda a: a,
    "MUX2": lambda in0, in1, sel: in1 if sel else in0,
    "CONST0": lambda: 0,
    "CONST1": lambda: 1,
}


@dataclass(frozen=True)
class SimState:
    """Snapshot of a simulation: cycle counter, Q values, settled net values.

    ``net_values`` is empty right after reset; ``settle`` fills in every net
    for the current flip-flop values and primary inputs.
    """

    cycle: int
    ff_values: dict[str, int]
    net_values: dict[str, int]


def latch(ff: FlipFlop, state: SimState) -> int:
    """Value the flip-flop would latch on an edge in this settled state."""
    if ff.enable is not None and state.net_values[ff.enable] == 0:
        return state.ff_values[ff.name]
    return state.net_values[ff.d]


def _fan_in_order(netlist: Netlist) -> list[Gate]:
    """Every gate after the gates that feed it: a depth-first walk back from
    each gate through the gates that drive its inputs."""
    gate_of = {g.output: g for g in netlist.gates}
    order: list[Gate] = []
    placed: set[str] = set()
    expanded: set[str] = set()
    for gate in netlist.gates:
        stack = [gate]
        while stack:
            top = stack[-1]
            if top.output in placed:
                stack.pop()
                continue
            feeding = [gate_of[x] for x in top.inputs if x in gate_of and x not in placed]
            if not feeding:
                order.append(top)
                placed.add(top.output)
                stack.pop()
            elif top.output in expanded:
                raise ValueError(f"combinational cycle through gate '{top.id}'")
            else:
                expanded.add(top.output)
                stack.extend(feeding)
    return order


class Stepper:
    """Reference simulator that advances one cycle at a time."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._gates = _fan_in_order(netlist)

    def reset(self) -> SimState:
        """Cycle 0, every flip-flop at its declared init value."""
        return SimState(0, {f.name: f.init for f in self.netlist.flipflops}, {})

    def settle(self, state: SimState, inputs: Mapping[str, int]) -> SimState:
        """Evaluate every gate for these inputs and Q values; no clock edge."""
        nets = dict(inputs)
        for f in self.netlist.flipflops:
            nets[f.q] = state.ff_values[f.name]
        for g in self._gates:
            nets[g.output] = _GATES[g.kind](*(nets[x] for x in g.inputs))
        return SimState(state.cycle, dict(state.ff_values), nets)

    def step_cycle(self, state: SimState, inputs: Mapping[str, int]) -> SimState:
        """Settle, clock every flip-flop at once, settle again."""
        mid = self.settle(state, inputs)
        latched = {f.name: latch(f, mid) for f in self.netlist.flipflops}
        return self.settle(SimState(state.cycle + 1, latched, {}), inputs)


def _inputs(netlist: Netlist, state: SimState) -> dict[str, int]:
    return {p: state.net_values[p] for p in netlist.inputs}


def fault_on_state(
    sim: Simulator,
    ref: Stepper,
    state: SimState,
    apply: Callable[[bytes], InjectionEffect],
) -> tuple[SimState, InjectionEffect]:
    """Run ``apply`` on a settled state as ``campaign.run_specs`` does.

    The state's nets become the settled values of a checkpoint, ``apply``
    names the flip-flops it flips, and the stepper settles the flipped
    state again for the same inputs.
    """
    effect = apply(bytes(state.net_values[name] for name in sim.net_names))
    ff_values = dict(state.ff_values)
    for name in effect.changed:
        ff_values[name] ^= 1
    settled = ref.settle(SimState(state.cycle, ff_values, {}), _inputs(ref.netlist, state))
    return settled, effect


def explicit_pulse_oracle(
    ref: Stepper,
    tree: ClockTree,
    state: SimState,
    buffer_id: str,
) -> SimState:
    """Reference semantics for a clock transient: one extra explicit edge.

    Delivers a spurious clock pulse to exactly the flip-flops in the buffer's
    cone. Each of them performs a full latch (enable ? D : Q) simultaneously,
    whether or not that changes anything; everything else is left alone. Kept
    as an independent formulation of the same physics so the optimized
    injection in ``cdnfi.faults`` can be checked against it.
    """
    netlist = ref.netlist
    missing = set(netlist.nets) - set(state.net_values)
    if missing:
        raise ValueError(f"state is not settled ({len(missing)} nets have no value)")
    cone = set(tree.cone(buffer_id))
    unknown = sorted(cone - set(netlist.ff_names()))
    if unknown:
        raise ValueError(
            f"cone of '{buffer_id}' names flip-flops not in netlist "
            f"'{netlist.name}': {', '.join(unknown)}"
        )
    pulsed = {
        f.name: latch(f, state) if f.name in cone else state.ff_values[f.name]
        for f in netlist.flipflops
    }
    return ref.settle(SimState(state.cycle, pulsed, {}), _inputs(netlist, state))


def replay_injection(
    ref: Stepper,
    stimulus: Stimulus,
    golden: GoldenTrace,
    spec: FaultSpec,
    tree: Optional[ClockTree] = None,
) -> tuple[InjectionRecord, tuple[str, ...]]:
    """Full replay from reset: settle each cycle, fault at spec.cycle, step.

    A transient is the explicit-pulse oracle, its effect read from the
    cone's stored values before and after; an upset flips one stored value
    and settles again. Each monitored row from the injection cycle on is
    compared with the golden one; the first that differs makes the injection
    a failure. Returns the record and the changed flip-flops, as a campaign's
    injection does.
    """
    state = ref.reset()
    effect = None
    failed = False
    for cycle in range(stimulus.n_cycles):
        inputs = stimulus.input_vectors[cycle]
        if cycle == spec.cycle:
            mid = ref.settle(state, inputs)
            if spec.kind is FaultKind.SET:
                state = explicit_pulse_oracle(ref, tree, mid, spec.target)
                cone = tree.cone(spec.target)
                effect = InjectionEffect(
                    reached=len(cone),
                    changed=tuple(n for n in cone if state.ff_values[n] != mid.ff_values[n]),
                )
            else:
                flipped = dict(mid.ff_values)
                flipped[spec.target] ^= 1
                state = ref.settle(SimState(mid.cycle, flipped, {}), inputs)
                effect = InjectionEffect(1, (spec.target,))
        state = ref.step_cycle(state, inputs)
        row = tuple(state.net_values[m] for m in stimulus.monitors)
        if cycle >= spec.cycle and row != golden.rows[cycle]:
            failed = True
            break
    classification = Classification.FUNCTIONAL_FAILURE if failed else Classification.MASKED
    record = InjectionRecord(spec.kind, spec.target, spec.cycle, effect.reached,
                             len(effect.changed), classification)
    return record, effect.changed
