"""Reference semantics the production engine is checked against.

``explicit_pulse_oracle`` is an independent formulation of a clock transient;
``replay_injection`` is the full step-by-step replay an injection is defined
by. Both use only the simulator's public stepping methods and share no code
with ``cdnfi.faults``. ``fault_on_state`` runs a production fault function on
a settled ``SimState``, so its result can be compared with theirs.
"""

from __future__ import annotations

from typing import Callable, Optional

from cdnfi.campaign import Classification, InjectionOutcome, compare_traces
from cdnfi.clocktree import ClockTree
from cdnfi.faults import FaultKind, FaultSpec, InjectionEffect, UnknownFlipFlopError
from cdnfi.simulator import GoldenTrace, SimState, Simulator, Stimulus


def _require_settled(netlist, state: SimState) -> None:
    missing = set(netlist.nets) - set(state.net_values)
    if missing:
        raise ValueError(
            f"state is not settled ({len(missing)} nets have no value); "
            "settle before injecting"
        )


def _extract_inputs(netlist, state: SimState) -> dict[str, int]:
    return {p: state.net_values[p] for p in netlist.inputs}


def _effective_d(ff, state: SimState) -> int:
    """Value the flip-flop would latch on an edge right now."""
    if ff.enable is not None and state.net_values[ff.enable] == 0:
        return state.ff_values[ff.name]
    return state.net_values[ff.d]


def fault_on_state(
    sim: Simulator,
    state: SimState,
    apply: Callable[[list[int]], InjectionEffect],
) -> tuple[SimState, InjectionEffect]:
    """Run ``apply`` on a settled state as ``Simulator.run`` does mid-cycle.

    The state's nets become the kernel's value list, ``apply`` writes Q
    values into it, and the result is settled again for the same inputs.
    """
    v = [state.net_values[name] for name in sim.net_names]
    effect = apply(v)
    ff_values = {name: v[q] for name, (q, _, _) in sim.pins.items()}
    settled = sim.settle(
        SimState(state.cycle, ff_values, {}), _extract_inputs(sim.netlist, state)
    )
    return settled, effect


def explicit_pulse_oracle(
    sim: Simulator,
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
    netlist = sim.netlist
    _require_settled(netlist, state)
    cone = set(tree.cone(buffer_id))
    ff_map = netlist.ff_map()
    unknown = sorted(cone - set(ff_map))
    if unknown:
        raise UnknownFlipFlopError(
            f"cone of '{buffer_id}' names flip-flops not in netlist "
            f"'{netlist.name}': {', '.join(unknown)}"
        )
    pulsed = {}
    for name, ff in ff_map.items():
        if name in cone:
            pulsed[name] = _effective_d(ff, state)
        else:
            pulsed[name] = state.ff_values[name]
    return sim.settle(
        SimState(state.cycle, pulsed, {}), _extract_inputs(netlist, state)
    )


def replay_injection(
    sim: Simulator,
    stimulus: Stimulus,
    golden: GoldenTrace,
    spec: FaultSpec,
    tree: Optional[ClockTree] = None,
) -> InjectionOutcome:
    """Full replay from reset: settle each cycle, fault at spec.cycle, step.

    A transient is the explicit-pulse oracle, its effect read from the
    cone's stored values before and after; an upset flips one stored value
    and settles again. The monitored trace is compared to the golden one
    from the injection cycle on, exactly as a campaign classifies an
    injection.
    """
    state = sim.reset()
    effect = None
    rows = []
    for cycle in range(stimulus.n_cycles):
        inputs = stimulus.input_vectors[cycle]
        if cycle == spec.cycle:
            mid = sim.settle(state, inputs)
            if spec.kind is FaultKind.SET:
                state = explicit_pulse_oracle(sim, tree, mid, spec.target)
                cone = tree.cone(spec.target)
                effect = InjectionEffect(
                    reached=cone,
                    changed=tuple(n for n in cone if state.ff_values[n] != mid.ff_values[n]),
                    unchanged=tuple(n for n in cone if state.ff_values[n] == mid.ff_values[n]),
                )
            else:
                flipped = dict(mid.ff_values)
                flipped[spec.target] ^= 1
                state = sim.settle(SimState(mid.cycle, flipped, {}), inputs)
                effect = InjectionEffect((spec.target,), (spec.target,), ())
        state = sim.step_cycle(state, inputs)
        rows.append(tuple(state.net_values[m] for m in stimulus.monitors))
    note = compare_traces(golden, GoldenTrace(stimulus.monitors, tuple(rows)), spec.cycle)
    classification = (
        Classification.MASKED if note is None else Classification.FUNCTIONAL_FAILURE
    )
    return InjectionOutcome(spec, effect, classification, note)
