import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi import netlist as netlist_module
from cdnfi.netlist import (
    BadArity,
    CombinationalCycle,
    DuplicateName,
    FlipFlop,
    Gate,
    MultipleDrivers,
    Netlist,
    NetlistParseError,
    NetlistValidationError,
    UndrivenNet,
    UnknownGateKind,
    parse_netlist,
    serialize_netlist,
    validate,
)
from cdnfi.simulator import Simulator
from gencircuit import random_netlist

TOGGLE_DOC = """
{
  "name": "toggle",
  "inputs": [],
  "outputs": ["q"],
  "gates": [{"id": "inv", "kind": "NOT", "in": ["q"], "out": "d"}],
  "ffs": [{"name": "t", "d": "d", "q": "q", "init": 0}]
}
"""


def toggle():
    return parse_netlist(TOGGLE_DOC)


def counter2():
    # two-bit binary counter: b0 toggles, b1 flips when b0 was 1
    gates = [
        Gate("g0", "NOT", ("b0_q",), "b0_d"),
        Gate("g1", "XOR", ("b1_q", "b0_q"), "b1_d"),
    ]
    ffs = [
        FlipFlop("b0", "b0_d", "b0_q", None, 0),
        FlipFlop("b1", "b1_d", "b1_q", None, 0),
    ]
    return Netlist.build("counter2", [], ["b0_q", "b1_q"], gates, ffs)


def test_parse_toggle_structure():
    n = toggle()
    assert n.name == "toggle"
    assert len(n.gates) == 1 and len(n.flipflops) == 1
    assert n.gates[0].kind == "NOT"
    assert n.flipflops[0].q == "q"
    assert n.nets == frozenset({"q", "d"})
    assert validate(n) == []


def test_parse_preserves_element_order(crc8):
    doc = json.loads(serialize_netlist(crc8))
    assert [g["id"] for g in doc["gates"]] == [g.id for g in crc8.gates]
    assert [f["name"] for f in doc["ffs"]] == [f.name for f in crc8.flipflops]


def test_parse_reports_syntax_position():
    with pytest.raises(NetlistParseError) as e:
        parse_netlist('{"name": "x", "inputs": [}')
    assert "line 1" in str(e.value)


def test_parse_missing_field():
    with pytest.raises(NetlistParseError, match="ffs"):
        parse_netlist('{"name": "x", "inputs": [], "outputs": [], "gates": []}')


def test_parse_undriven_net_named():
    doc = {
        "name": "bad",
        "inputs": [],
        "outputs": ["y"],
        "gates": [{"id": "g", "kind": "BUF", "in": ["nX"], "out": "y"}],
        "ffs": [],
    }
    with pytest.raises(NetlistValidationError, match="undriven net 'nX'") as e:
        parse_netlist(json.dumps(doc))
    assert any(isinstance(v, UndrivenNet) and v.net == "nX" for v in e.value.violations)


def test_parse_unknown_kind():
    doc = {
        "name": "bad",
        "inputs": ["a"],
        "outputs": ["y"],
        "gates": [{"id": "g", "kind": "XOR3", "in": ["a"], "out": "y"}],
        "ffs": [],
    }
    with pytest.raises(NetlistValidationError) as e:
        parse_netlist(json.dumps(doc))
    assert any(isinstance(v, UnknownGateKind) for v in e.value.violations)


def test_parse_duplicate_names():
    doc = {
        "name": "bad",
        "inputs": ["a"],
        "outputs": [],
        "gates": [
            {"id": "g", "kind": "BUF", "in": ["a"], "out": "x"},
            {"id": "g", "kind": "NOT", "in": ["a"], "out": "z"},
        ],
        "ffs": [],
    }
    with pytest.raises(NetlistValidationError) as e:
        parse_netlist(json.dumps(doc))
    assert DuplicateName("g", "gate") in e.value.violations


def test_validate_multiple_drivers():
    n = Netlist.build(
        "bad", ["a"], [],
        [
            Gate("g1", "BUF", ("a",), "x"),
            Gate("g2", "NOT", ("a",), "x"),
        ],
        [],
    )
    found = [v for v in validate(n) if isinstance(v, MultipleDrivers)]
    assert len(found) == 1 and found[0].net == "x"


def test_validate_names_what_drives_and_reads_each_broken_net():
    n = Netlist.build(
        "bad", ["a", "x"], ["y", "u"],
        [
            Gate("g1", "BUF", ("a",), "x"),
            Gate("g2", "AND", ("u", "x"), "y"),
            Gate("g3", "NOT", ("u",), "x"),
            Gate("g4", "OR", ("w", "u"), "y"),
        ],
        [FlipFlop("r", "u", "x", "w", 0), FlipFlop("s", "w", "q", None, 1)],
    )
    assert [str(v) for v in validate(n)] == [
        "net 'x' has multiple drivers: input port 'x', gate 'g1', gate 'g3', flip-flop 'r' Q",
        "net 'y' has multiple drivers: gate 'g2', gate 'g4'",
        "undriven net 'u' (referenced by gate 'g2', gate 'g3', gate 'g4', "
        "flip-flop 'r' D, output port 'u')",
        "undriven net 'w' (referenced by gate 'g4', flip-flop 'r' enable, flip-flop 's' D)",
    ]


def test_levels_are_computed_once_per_netlist(monkeypatch):
    calls = []
    real = netlist_module._gate_levels

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(netlist_module, "_gate_levels", counted)
    n = Netlist.build(
        "chain", ["a"], ["w"],
        [
            Gate("g3", "NOT", ("v",), "w"),
            Gate("g1", "BUF", ("a",), "u"),
            Gate("g2", "AND", ("u", "a"), "v"),
        ],
        [],
    )
    assert validate(n) == []
    Simulator(n)
    assert n.levels == {"g1": 0, "g2": 1, "g3": 2}
    assert calls == [n]


def test_validate_combinational_cycle():
    n = Netlist.build(
        "loop", ["a"], [],
        [
            Gate("g1", "AND", ("a", "y"), "x"),
            Gate("g2", "BUF", ("x",), "y"),
        ],
        [],
    )
    cycles = [v for v in validate(n) if isinstance(v, CombinationalCycle)]
    assert len(cycles) == 1
    assert set(cycles[0].gate_ids) == {"g1", "g2"}


def test_validate_bad_arity():
    n = Netlist.build("bad", ["a"], [], [Gate("g", "AND", ("a",), "x")], [])
    assert any(isinstance(v, BadArity) for v in validate(n))


def test_cycle_through_ff_is_fine():
    assert validate(toggle()) == []
    assert validate(counter2()) == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_serialize_parse_round_trip(seed):
    n = random_netlist(random.Random(seed))
    again = parse_netlist(serialize_netlist(n))
    assert again == n
    assert parse_netlist(serialize_netlist(again)) == again


def test_round_trip_bundled(crc8, lfsr):
    for n in (crc8, lfsr):
        assert parse_netlist(serialize_netlist(n)) == n
