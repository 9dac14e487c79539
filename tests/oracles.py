"""Reference semantics the production engine is checked against.

``explicit_pulse_oracle`` is an independent formulation of a clock transient;
``replay_injection`` is the full step-by-step replay an injection is defined
by. Both use only the simulator's public stepping methods.
"""

from __future__ import annotations

from typing import Optional

from cdnfi.campaign import Classification, InjectionOutcome, compare_traces
from cdnfi.clocktree import ClockTree
from cdnfi.faults import (
    FaultKind,
    FaultSpec,
    UnknownFlipFlopError,
    _effective_d,
    _extract_inputs,
    _require_settled,
    apply_set,
    apply_seu,
)
from cdnfi.simulator import GoldenTrace, SimState, Simulator, Stimulus


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

    The monitored trace is compared to the golden one from the injection
    cycle on, exactly as a campaign classifies an injection.
    """
    state = sim.reset()
    effect = None
    rows = []
    for cycle in range(stimulus.n_cycles):
        inputs = stimulus.input_vectors[cycle]
        if cycle == spec.cycle:
            mid = sim.settle(state, inputs)
            if spec.kind is FaultKind.SET:
                state, effect = apply_set(sim, tree, mid, spec.target)
            else:
                state, effect = apply_seu(sim, mid, spec.target)
        state = sim.step_cycle(state, inputs)
        rows.append(tuple(state.net_values[m] for m in stimulus.monitors))
    note = compare_traces(golden, GoldenTrace(stimulus.monitors, tuple(rows)), spec.cycle)
    classification = (
        Classification.MASKED if note is None else Classification.FUNCTIONAL_FAILURE
    )
    return InjectionOutcome(spec, effect, classification, note)
