import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi.clocktree import RandomShuffle, UnknownBufferError, generate_tree
from cdnfi.faults import InjectionEffect, apply_seu, apply_set
from cdnfi.netlist import FlipFlop, Gate, Netlist
from cdnfi.simulator import Simulator
from gencircuit import random_netlist
from oracles import Stepper, explicit_pulse_oracle, fault_on_state
from test_netlist import toggle


def settled(netlist, inputs=None):
    ref = Stepper(netlist)
    return ref.settle(ref.reset(), inputs or {})


def set_on_state(netlist, tree, state, buffer_id):
    sim = Simulator(netlist)
    return fault_on_state(
        sim, Stepper(netlist), state, lambda v: apply_set(sim, tree, v, buffer_id)
    )


def seu_on_state(netlist, state, ff_name):
    sim = Simulator(netlist)
    return fault_on_state(sim, Stepper(netlist), state, lambda _: apply_seu(ff_name))


def unchanged(tree, buffer_id, effect):
    """The reached flip-flops a transient left as they were, in cone order."""
    return tuple(name for name in tree.cone(buffer_id) if name not in effect.changed)


def gated_pair():
    """One enable-gated and one free-running flip-flop, both with D != Q."""
    return Netlist.build(
        "pair", ["dg", "en", "du"], ["g_q", "u_q"], [],
        [
            FlipFlop("g", "dg", "g_q", "en", 0),
            FlipFlop("u", "du", "u_q", None, 0),
        ],
    )


def test_set_copies_d_to_q():
    n = toggle()
    tree = generate_tree(n.ff_names(), 1)
    state, effect = set_on_state(n, tree, settled(n), "b")
    assert state.ff_values["t"] == 1
    assert effect == InjectionEffect(1, ("t",))
    # the combinational logic is re-settled against the corrupted value
    assert state.net_values["d"] == 0


def test_set_honors_enable_as_recirculation():
    n = gated_pair()
    tree = generate_tree(n.ff_names(), 2)
    state, effect = set_on_state(n, tree, settled(n, {"dg": 1, "en": 0, "du": 1}), "b")
    assert effect.reached == 2
    assert effect.changed == ("u",)
    assert unchanged(tree, "b", effect) == ("g",)
    assert state.ff_values == {"g": 0, "u": 1}


def test_set_with_enable_high_latches():
    n = gated_pair()
    tree = generate_tree(n.ff_names(), 2)
    state, effect = set_on_state(n, tree, settled(n, {"dg": 1, "en": 1, "du": 0}), "b")
    assert effect.changed == ("g",)
    assert unchanged(tree, "b", effect) == ("u",)
    assert state.ff_values == {"g": 1, "u": 0}


def test_set_on_recirculating_ffs_changes_nothing():
    # every flip-flop feeds itself, so a spurious edge reloads the same value
    ffs = [FlipFlop(f"r{i}", f"r{i}_q", f"r{i}_q", None, i % 2) for i in range(4)]
    n = Netlist.build("recirc", [], ["r0_q"], [], ffs)
    tree = generate_tree(n.ff_names(), 2)
    before = settled(n)
    state, effect = set_on_state(n, tree, before, "b")
    assert effect.changed == ()
    assert effect.reached == 4
    assert unchanged(tree, "b", effect) == tuple(n.ff_names())
    assert state == before


def test_set_updates_cone_simultaneously():
    n = Netlist.build(
        "swap", [], ["a_q", "b_q"], [],
        [FlipFlop("a", "b_q", "a_q", None, 0), FlipFlop("b", "a_q", "b_q", None, 1)],
    )
    tree = generate_tree(n.ff_names(), 2)
    state, effect = set_on_state(n, tree, settled(n), "b")
    assert state.ff_values == {"a": 1, "b": 0}
    assert set(effect.changed) == {"a", "b"}


def test_set_outside_cone_untouched():
    n = Netlist.build(
        "two", ["x"], ["p_q", "q_q"], [Gate("gi", "NOT", ("x",), "xn")],
        [FlipFlop("p", "x", "p_q", None, 0), FlipFlop("q", "xn", "q_q", None, 0)],
    )
    tree = generate_tree(n.ff_names(), 1)
    leaf_of_p = next(b.id for b in tree.leaves() if b.cone == ("p",))
    state, effect = set_on_state(n, tree, settled(n, {"x": 1}), leaf_of_p)
    assert effect == InjectionEffect(1, ("p",))
    assert state.ff_values == {"p": 1, "q": 0}  # q's input is 0 but it was not pulsed


def test_set_unknown_buffer_and_foreign_tree():
    n = toggle()
    tree = generate_tree(n.ff_names(), 1)
    with pytest.raises(UnknownBufferError):
        set_on_state(n, tree, settled(n), "b11")
    foreign = generate_tree(["someone.else"], 1)
    with pytest.raises(ValueError, match="someone.else"):
        explicit_pulse_oracle(Stepper(n), foreign, settled(n), "b")


def test_seu_flips_and_restores():
    n = toggle()
    before = settled(n)
    flipped, effect = seu_on_state(n, before, "t")
    assert flipped.ff_values["t"] == 1
    assert flipped.net_values["d"] == 0
    assert effect == InjectionEffect(1, ("t",))
    restored, _ = seu_on_state(n, flipped, "t")
    assert restored == before


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_set_accounting_partitions_the_cone(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    tree = generate_tree(n.ff_names(), 1, RandomShuffle(seed))
    state = settled(n, {p: rng.randint(0, 1) for p in n.inputs})
    for buffer_id in tree.buffer_ids():
        cone = tree.cone(buffer_id)
        _, effect = set_on_state(n, tree, state, buffer_id)
        assert effect.reached == len(cone)
        assert set(effect.changed) <= set(cone)
        assert len(set(effect.changed)) == len(effect.changed)
        rest = unchanged(tree, buffer_id, effect)
        assert len(effect.changed) + len(rest) == effect.reached
        # both partitions preserve cone order
        pos = {name: i for i, name in enumerate(cone)}
        for part in (effect.changed, rest):
            assert list(part) == sorted(part, key=pos.__getitem__)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_set_matches_explicit_pulse_oracle(seed):
    rng = random.Random(seed)
    n = random_netlist(rng)
    tree = generate_tree(n.ff_names(), 1, RandomShuffle(seed))
    ref = Stepper(n)
    state = settled(n, {p: rng.randint(0, 1) for p in n.inputs})
    for buffer_id in tree.buffer_ids():
        fast, _ = set_on_state(n, tree, state, buffer_id)
        assert fast == explicit_pulse_oracle(ref, tree, state, buffer_id)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_second_pulse_only_moves_feedback_victims(seed):
    # pulsing the same buffer twice in a row can only change flip-flops whose
    # input was recomputed from values the first pulse changed
    rng = random.Random(seed)
    n = random_netlist(rng)
    tree = generate_tree(n.ff_names(), 1)
    state = settled(n, {p: rng.randint(0, 1) for p in n.inputs})
    mid, first = set_on_state(n, tree, state, "b")
    _, second = set_on_state(n, tree, mid, "b")
    assert first.reached == len(tree.cone("b"))
    assert set(second.changed) <= set(tree.cone("b"))
    if not first.changed:
        assert not second.changed


def test_seu_does_not_disturb_others():
    n = gated_pair()
    state, _ = seu_on_state(n, settled(n, {"dg": 1, "en": 1, "du": 1}), "g")
    assert state.ff_values == {"g": 1, "u": 0}
