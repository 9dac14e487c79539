import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi.netlist import FlipFlop, Gate, Netlist, NetlistError
from cdnfi.simulator import (
    _ARITY,
    _OPS,
    GoldenTrace,
    MissingInputError,
    SimulationError,
    Simulator,
    Stimulus,
    StimulusError,
    parse_stimulus,
    serialize_stimulus,
)
from gencircuit import random_netlist, random_stimulus
from oracles import Stepper
from test_netlist import counter2, toggle


def autonomous_stimulus(netlist, n_cycles, monitors=None):
    monitors = tuple(monitors if monitors is not None else netlist.outputs)
    return Stimulus(n_cycles, tuple({} for _ in range(n_cycles)), (0, n_cycles - 1), monitors)


def test_reset_holds_init_values():
    n = Netlist.build(
        "inits", [], ["b0_q"],
        [Gate("g", "BUF", ("b0_q",), "x")],
        [FlipFlop("b0", "x", "b0_q", None, 1), FlipFlop("b1", "x", "b1_q", None, 0)],
    )
    state = Stepper(n).reset()
    assert state.cycle == 0
    assert state.ff_values == {"b0": 1, "b1": 0}
    assert state.net_values == {}


def test_toggle_trace_post_edge():
    trace = Simulator(toggle()).run(autonomous_stimulus(toggle(), 4))
    assert trace.rows == ((1,), (0,), (1,), (0,))


def test_counter_sequence_matches_arithmetic_oracle():
    n = counter2()
    trace = Simulator(n).run(autonomous_stimulus(n, 6, monitors=("b1_q", "b0_q")))
    seen = [b1 * 2 + b0 for b1, b0 in trace.rows]
    # independent oracle: plain integer counting, wrapping at 4
    assert seen == [(k + 1) % 4 for k in range(6)]


def test_two_bit_counter_from_mixed_init():
    gates = [
        Gate("g0", "NOT", ("b0_q",), "b0_d"),
        Gate("g1", "XOR", ("b1_q", "b0_q"), "b1_d"),
    ]
    ffs = [
        FlipFlop("b0", "b0_d", "b0_q", None, 1),
        FlipFlop("b1", "b1_d", "b1_q", None, 0),
    ]
    n = Netlist.build("counter2b", [], ["b0_q", "b1_q"], gates, ffs)
    trace = Simulator(n).run(autonomous_stimulus(n, 1, monitors=("b1_q", "b0_q")))
    assert trace.rows == ((1, 0),)


def test_pass_through_tracks_inputs():
    n = Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], [])
    vectors = tuple({"a": bit} for bit in (0, 1, 1, 0))
    st_ = Stimulus(4, vectors, (0, 3), ("y",))
    trace = Simulator(n).run(st_)
    assert trace.rows == ((0,), (1,), (1,), (0,))


def test_enable_low_recirculates():
    n = Netlist.build(
        "hold", ["d", "en"], ["q"], [],
        [FlipFlop("r", "d", "q", "en", 0)],
    )
    vectors = ({"d": 1, "en": 0}, {"d": 1, "en": 1}, {"d": 0, "en": 0})
    trace = Simulator(n).run(Stimulus(3, vectors, (0, 2), ("q",)))
    assert trace.rows == ((0,), (1,), (1,))


def test_step_does_not_mutate_input_state():
    ref = Stepper(toggle())
    s0 = ref.reset()
    before = dict(s0.ff_values)
    ref.step_cycle(s0, {})
    assert s0.ff_values == before and s0.cycle == 0


def test_ff_update_is_simultaneous():
    # two registers swap values every cycle; a sequential update would lose one
    n = Netlist.build(
        "swap", [], ["a_q", "b_q"], [],
        [FlipFlop("a", "b_q", "a_q", None, 0), FlipFlop("b", "a_q", "b_q", None, 1)],
    )
    trace = Simulator(n).run(autonomous_stimulus(n, 2, monitors=("a_q", "b_q")))
    assert trace.rows == ((1, 0), (0, 1))


def wire():
    return Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], [])


def test_missing_input_named():
    with pytest.raises(MissingInputError, match="'a'"):
        Simulator(wire()).run(Stimulus(1, ({},), (0, 0), ("y",)))


def test_unknown_input_rejected():
    with pytest.raises(SimulationError, match="bogus"):
        Simulator(wire()).run(Stimulus(1, ({"a": 1, "bogus": 0},), (0, 0), ("y",)))


@pytest.mark.parametrize("bit", [True, 1.0, 2, "1", None])
def test_non_bit_input_rejected(bit):
    stimulus = Stimulus(2, ({"a": 0}, {"a": bit}), (0, 1), ("y",))
    with pytest.raises(SimulationError, match=r"cycle 1 input 'a' value .* is not a bit"):
        Simulator(wire()).run(stimulus)


def test_one_vector_per_cycle_required():
    with pytest.raises(StimulusError, match="1 input vectors for 2 cycles"):
        Simulator(wire()).run(Stimulus(2, ({"a": 0},), (0, 1), ("y",)))


def test_monitor_must_be_output():
    n = toggle()
    bad = Stimulus(2, ({}, {}), (0, 1), ("d",))
    with pytest.raises(StimulusError, match="outputs.*: d"):
        Simulator(n).run(bad)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_run_is_deterministic(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    st_ = random_stimulus(rng, n)
    a = Simulator(n).run(st_)
    b = Simulator(n).run(st_)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ff_document_order_is_irrelevant(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    st_ = random_stimulus(rng, n)
    shuffled = Netlist.build(
        n.name, n.inputs, n.outputs, n.gates,
        tuple(sorted(n.flipflops, key=lambda f: f.name, reverse=True)),
    )
    a = Simulator(n).run(st_)
    b = Simulator(shuffled).run(st_)
    assert a == b


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_forced_low_enable_freezes_ff(seed):
    rng = random.Random(seed)
    n = random_netlist(rng, enables_from_inputs=True)
    gated = [f for f in n.flipflops if f.enable is not None]
    if not gated:
        return
    n_cycles = 8
    vectors = tuple(
        {p: (0 if any(f.enable == p for f in gated) else rng.randint(0, 1)) for p in n.inputs}
        for _ in range(n_cycles)
    )
    qs = tuple(f.q for f in gated)
    watched = Netlist.build(n.name, n.inputs, qs, n.gates, n.flipflops)
    trace = Simulator(watched).run(Stimulus(n_cycles, vectors, (0, n_cycles - 1), qs))
    assert trace.rows == (tuple(f.init for f in gated),) * n_cycles


def test_settle_assigns_every_net_once():
    for seed in range(25):
        n = random_netlist(random.Random(seed))
        ref = Stepper(n)
        state = ref.settle(ref.reset(), {p: 0 for p in n.inputs})
        assert set(state.net_values) == set(n.nets)
        outs = [g.output for g in n.gates]
        assert len(outs) == len(set(outs))


def step_cycle_replay(ref, stimulus):
    """Post-edge states and monitor rows of a reference stepper replay."""
    state = ref.reset()
    states, rows = [], []
    for inputs in stimulus.input_vectors:
        state = ref.step_cycle(state, inputs)
        states.append(state)
        rows.append(tuple(state.net_values[m] for m in stimulus.monitors))
    return states, GoldenTrace(stimulus.monitors, tuple(rows))


def test_run_matches_step_cycle_replay():
    stimulus = autonomous_stimulus(toggle(), 3)
    states, replayed = step_cycle_replay(Stepper(toggle()), stimulus)
    assert [s.cycle for s in states] == [1, 2, 3]
    assert [s.ff_values["t"] for s in states] == [1, 0, 1]
    assert Simulator(toggle()).run(stimulus) == replayed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_run_matches_step_cycle_replay_on_random_circuits(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    stimulus = random_stimulus(rng, n)
    assert Simulator(n).run(stimulus) == step_cycle_replay(Stepper(n), stimulus)[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_run_matches_reference_stepper_on_every_net(seed):
    # the kernel against the stepper, which shares no code with it; every
    # net is monitored, so a wrong gate cannot hide behind the outputs, and
    # up to 300 gates of all eleven kinds make a settle cross many runs
    rng = random.Random(seed)
    n = random_netlist(rng, max_gates=300)
    n = Netlist.build(n.name, n.inputs, sorted(n.nets), n.gates, n.flipflops)
    stimulus = random_stimulus(rng, n)
    assert Simulator(n).run(stimulus) == step_cycle_replay(Stepper(n), stimulus)[1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_checkpoints_hold_every_net_before_and_after_each_edge(seed):
    # injections strike the first and compare against the second, so every
    # net of both is checked against the reference stepper
    rng = random.Random(seed)
    n = random_netlist(rng)
    stimulus = random_stimulus(rng, n)
    sim = Simulator(n)
    checkpoints = []
    sim.run(stimulus, checkpoints)
    assert len(checkpoints) == stimulus.n_cycles
    ref = Stepper(n)
    state = ref.reset()
    for inputs, (settled, sampled) in zip(stimulus.input_vectors, checkpoints):
        before = ref.settle(state, inputs)
        state = ref.step_cycle(state, inputs)
        assert settled == bytes(before.net_values[net] for net in sim.net_names)
        assert sampled == bytes(state.net_values[net] for net in sim.net_names)


def synthetic_netlist(seed):
    """The benchmark's paper-scale circuit: 1233 flip-flops, 4000 gates."""
    path = Path(__file__).resolve().parent.parent / "bench" / "synthcircuit.py"
    spec = importlib.util.spec_from_file_location("synthcircuit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synth_netlist(seed)


def assert_compiled_plan(n):
    sim = Simulator(n)
    plan = sim._plan
    # the runs, one opcode each and maximal, are the plan cut in pieces
    assert tuple(gate for _, gates in sim._runs for gate in gates) == plan
    assert all(gate[0] == op for op, gates in sim._runs for gate in gates)
    assert all(a[0] != b[0] for a, b in zip(sim._runs, sim._runs[1:]))
    # every gate exactly once
    expected = []
    for g in n.gates:
        ins = sim.slots(g.inputs) + [0] * (3 - len(g.inputs))
        expected.append((_OPS[g.kind], *ins, sim.slots([g.output])[0]))
    assert sorted(plan) == sorted(expected)
    # by level, then by opcode
    level_of = {sim.slots([g.output])[0]: n.levels[g.id] for g in n.gates}
    keys = [(level_of[out], op) for op, *_, out in plan]
    assert keys == sorted(keys)
    # every input slot is a primary input, a Q, or the output of an earlier gate
    ready = set(sim.slots(n.inputs)) | set(sim.slots(f.q for f in n.flipflops))
    for op, i0, i1, i2, out in plan:
        assert ready.issuperset((i0, i1, i2)[:_ARITY[op]])
        ready.add(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compiled_plan_is_level_sorted_runs_on_random_circuits(seed):
    assert_compiled_plan(random_netlist(random.Random(seed), max_gates=300))


def test_compiled_plan_is_level_sorted_runs_on_synthetic_circuit():
    assert_compiled_plan(synthetic_netlist(5))


def test_compile_rejects_combinational_cycle():
    n = Netlist.build(
        "loop", ["a"], ["x"],
        [
            Gate("g1", "AND", ("a", "y"), "x"),
            Gate("g2", "BUF", ("x",), "y"),
            Gate("g3", "NOT", ("a",), "z"),
        ],
        [],
    )
    with pytest.raises(NetlistError, match="combinational cycle involving gates: g1, g2$"):
        Simulator(n)


# ---------------------------------------------------------------------------
# stimulus documents


def test_stimulus_inheritance():
    doc = """
    {
      "n_cycles": 5,
      "active_window": [1, 3],
      "monitors": ["y"],
      "vectors": {"0": {"a": 0}, "3": {"a": 1}}
    }
    """
    st_ = parse_stimulus(doc)
    assert [v["a"] for v in st_.input_vectors] == [0, 0, 0, 1, 1]
    assert st_.active_window == (1, 3)


def test_stimulus_requires_cycle_zero():
    with pytest.raises(StimulusError, match="cycle 0"):
        parse_stimulus('{"n_cycles": 2, "active_window": [0, 1], "monitors": [], "vectors": {"1": {}}}')


def test_stimulus_window_must_fit():
    with pytest.raises(StimulusError, match="window"):
        parse_stimulus('{"n_cycles": 4, "active_window": [2, 4], "monitors": [], "vectors": {"0": {}}}')


def test_stimulus_round_trip(crc8_stimulus, lfsr_stimulus):
    for st_ in (crc8_stimulus, lfsr_stimulus):
        assert parse_stimulus(serialize_stimulus(st_)) == st_


def test_validate_stimulus_covers_inputs():
    n = Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], [])
    good = Stimulus(2, ({"a": 0}, {"a": 1}), (0, 1), ("y",))
    assert Simulator(n).run(good).rows == ((0,), (1,))
    bad = Stimulus(2, ({"a": 0}, {}), (0, 1), ("y",))
    with pytest.raises(MissingInputError, match="cycle 1"):
        Simulator(n).run(bad)


def test_trace_csv_round_trip():
    t = GoldenTrace(("m1", "m2"), ((0, 1), (1, 1), (0, 0)))
    assert GoldenTrace.from_csv(t.to_csv()) == t


def test_trace_csv_rejects_garbage():
    with pytest.raises(StimulusError):
        GoldenTrace.from_csv("m1\nx\n")
    with pytest.raises(StimulusError):
        GoldenTrace.from_csv("m1\n2\n")
