"""Seeded random circuit and stimulus builders for the property tests.

Circuits are built in topological order (each gate only reads nets that
already have a driver), so every generated netlist is acyclic and validates
cleanly by construction.
"""

from __future__ import annotations

import random

from cdnfi.netlist import FlipFlop, Gate, Netlist, validate
from cdnfi.simulator import Stimulus

_ARITY = {"NOT": 1, "BUF": 1, "MUX2": 3, "CONST0": 0, "CONST1": 0}
_KINDS = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "NOT", "BUF", "MUX2", "CONST0", "CONST1"]


def random_netlist(
    rng: random.Random,
    max_ffs: int = 8,
    max_gates: int = 15,
    enables_from_inputs: bool = False,
) -> Netlist:
    n_inputs = rng.randint(1, 3)
    inputs = [f"in{i}" for i in range(n_inputs)]
    n_ffs = rng.randint(2, max_ffs)
    n_gates = rng.randint(3, max_gates)

    available = list(inputs) + [f"ff{i}_q" for i in range(n_ffs)]
    gates = []
    for g in range(n_gates):
        kind = rng.choice(_KINDS)
        arity = _ARITY.get(kind, 2)
        ins = tuple(rng.choice(available) for _ in range(arity))
        out = f"n{g}"
        gates.append(Gate(f"g{g}", kind, ins, out))
        available.append(out)

    ffs = []
    for i in range(n_ffs):
        enable = None
        if rng.random() < 0.4:
            pool = inputs if enables_from_inputs else available
            enable = rng.choice(pool)
        ffs.append(FlipFlop(f"ff.{i}", rng.choice(available), f"ff{i}_q", enable, rng.randint(0, 1)))

    n_outputs = rng.randint(1, min(3, len(available)))
    outputs = sorted(rng.sample(available, k=n_outputs))
    netlist = Netlist.build("randcircuit", inputs, outputs, gates, ffs)
    # the kernel trusts its netlist to validate, as parse_netlist ensures
    assert validate(netlist) == []
    return netlist


def random_stimulus(rng: random.Random, netlist: Netlist, max_cycles: int = 12) -> Stimulus:
    n_cycles = rng.randint(5, max_cycles)
    vectors = tuple(
        {p: rng.randint(0, 1) for p in netlist.inputs} for _ in range(n_cycles)
    )
    first = rng.randrange(n_cycles)
    last = rng.randrange(first, n_cycles)
    return Stimulus(n_cycles, vectors, (first, last), tuple(netlist.outputs))
