import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi.netlist import FlipFlop, Gate, Netlist
from cdnfi.simulator import (
    GoldenTrace,
    MissingInputError,
    SimulationError,
    Simulator,
    Stimulus,
    StimulusError,
    parse_stimulus,
    serialize_stimulus,
    validate_stimulus,
)
from gencircuit import random_netlist, random_stimulus
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
    state = Simulator(n).reset()
    assert state.cycle == 0
    assert state.ff_values == {"b0": 1, "b1": 0}
    assert state.net_values == {}


def test_toggle_trace_post_edge():
    trace = Simulator(toggle()).run(autonomous_stimulus(toggle(), 4))
    assert trace.rows == ((1,), (0,), (1,), (0,))


def test_counter_sequence_matches_arithmetic_oracle():
    n = counter2()
    sim = Simulator(n)
    state = sim.reset()
    seen = []
    for _ in range(6):
        state = sim.step_cycle(state, {})
        seen.append(state.ff_values["b1"] * 2 + state.ff_values["b0"])
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
    sim = Simulator(n)
    state = sim.step_cycle(sim.reset(), {})
    assert (state.ff_values["b1"], state.ff_values["b0"]) == (1, 0)


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
    sim = Simulator(n)
    state = sim.reset()
    state = sim.step_cycle(state, {"d": 1, "en": 0})
    assert state.ff_values["r"] == 0
    state = sim.step_cycle(state, {"d": 1, "en": 1})
    assert state.ff_values["r"] == 1
    state = sim.step_cycle(state, {"d": 0, "en": 0})
    assert state.ff_values["r"] == 1


def test_step_does_not_mutate_input_state():
    sim = Simulator(toggle())
    s0 = sim.reset()
    before = dict(s0.ff_values)
    sim.step_cycle(s0, {})
    assert s0.ff_values == before and s0.cycle == 0


def test_ff_update_is_simultaneous():
    # two registers swap values every cycle; a sequential update would lose one
    n = Netlist.build(
        "swap", [], ["a_q", "b_q"], [],
        [FlipFlop("a", "b_q", "a_q", None, 0), FlipFlop("b", "a_q", "b_q", None, 1)],
    )
    sim = Simulator(n)
    state = sim.step_cycle(sim.reset(), {})
    assert (state.ff_values["a"], state.ff_values["b"]) == (1, 0)
    state = sim.step_cycle(state, {})
    assert (state.ff_values["a"], state.ff_values["b"]) == (0, 1)


def test_missing_input_named():
    n = Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], [])
    with pytest.raises(MissingInputError, match="'a'"):
        Simulator(n).step_cycle(Simulator(n).reset(), {})


def test_unknown_input_rejected():
    n = Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], [])
    sim = Simulator(n)
    with pytest.raises(SimulationError, match="bogus"):
        sim.step_cycle(sim.reset(), {"a": 1, "bogus": 0})


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
    sim = Simulator(n)
    state = sim.reset()
    for cycle in range(n_cycles):
        state = sim.step_cycle(state, vectors[cycle])
        for f in gated:
            assert state.ff_values[f.name] == f.init


def test_settle_assigns_every_net_once():
    for seed in range(25):
        n = random_netlist(random.Random(seed))
        sim = Simulator(n)
        state = sim.settle(sim.reset(), {p: 0 for p in n.inputs})
        assert set(state.net_values) == set(n.nets)
        outs = [g.output for g in n.gates]
        assert len(outs) == len(set(outs))


def step_cycle_replay(sim, stimulus):
    """Post-edge states and monitor rows of a reset/step_cycle replay."""
    state = sim.reset()
    states, rows = [], []
    for inputs in stimulus.input_vectors:
        state = sim.step_cycle(state, inputs)
        states.append(state)
        rows.append(tuple(state.net_values[m] for m in stimulus.monitors))
    return states, GoldenTrace(stimulus.monitors, tuple(rows))


def test_run_matches_step_cycle_replay():
    sim = Simulator(toggle())
    stimulus = autonomous_stimulus(toggle(), 3)
    states, replayed = step_cycle_replay(sim, stimulus)
    assert [s.cycle for s in states] == [1, 2, 3]
    assert [s.ff_values["t"] for s in states] == [1, 0, 1]
    assert sim.run(stimulus) == replayed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_run_matches_step_cycle_replay_on_random_circuits(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    stimulus = random_stimulus(rng, n)
    sim = Simulator(n)
    assert sim.run(stimulus) == step_cycle_replay(sim, stimulus)[1]


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
    validate_stimulus(n, good)
    bad = Stimulus(2, ({"a": 0}, {}), (0, 1), ("y",))
    with pytest.raises(MissingInputError, match="cycle 1"):
        validate_stimulus(n, bad)


def test_trace_csv_round_trip():
    t = GoldenTrace(("m1", "m2"), ((0, 1), (1, 1), (0, 0)))
    assert GoldenTrace.from_csv(t.to_csv()) == t


def test_trace_csv_rejects_garbage():
    with pytest.raises(StimulusError):
        GoldenTrace.from_csv("m1\nx\n")
    with pytest.raises(StimulusError):
        GoldenTrace.from_csv("m1\n2\n")
