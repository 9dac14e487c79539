"""Seeded paper-scale synthetic circuit for the benchmark.

Shape follows the reference design of the paper: 1233 flip-flops, so that a
by-name clock network at min fan-out 16 has 127 buffers in 7 stages. The
combinational part holds 4000 gates and the stimulus runs 100 cycles.

Like ``tests/gencircuit.py``, gates are created in topological order (each
gate reads only nets that are already driven), so the netlist is acyclic
and validates by construction. Three choices make faults mask often, which
the bundled circuits rarely do:

- gates read mostly from a short window of recent nets, so the fan-out cone
  of a flip-flop stays local;
- most gates are AND/OR/NAND/NOR/MUX2, whose controlling values block a
  difference, and few are XOR/XNOR, which always pass one;
- about a fifth of the flip-flops have a clock enable decoded from several
  primary inputs, so it is rarely active.

Documents are written with the package's own serializers, so the same seed
gives the same bytes.
"""

from __future__ import annotations

import random

from cdnfi.netlist import FlipFlop, Gate, Netlist, serialize_netlist
from cdnfi.simulator import Stimulus, serialize_stimulus

N_FFS = 1233
N_GATES = 4000
N_INPUTS = 32
N_OUTPUTS = 48
N_CYCLES = 100
ACTIVE_WINDOW = (5, 94)
ENABLE_FRACTION = 0.2

# weights of gate kinds; XOR/XNOR are rare so differences are often blocked
_KIND_WEIGHTS = (
    ("AND", 6), ("OR", 6), ("NAND", 4), ("NOR", 4), ("MUX2", 4),
    ("NOT", 2), ("BUF", 1), ("XOR", 1), ("XNOR", 1),
)
_ARITY = {"NOT": 1, "BUF": 1, "MUX2": 3}
_WINDOW = 96


def _ff_name(i: int) -> str:
    # hierarchical names grouped in 32-bit registers, so by-name clock
    # networks cluster whole registers as a layout would
    return f"core.r{i // 32:02d}.b{i % 32:02d}"


def synth_netlist(seed: int) -> Netlist:
    rng = random.Random(f"cdnfi-bench/netlist/{seed}")
    kinds = [k for k, _ in _KIND_WEIGHTS]
    weights = [w for _, w in _KIND_WEIGHTS]
    inputs = [f"in{i}" for i in range(N_INPUTS)]
    ff_q = [f"q{i}" for i in range(N_FFS)]

    # rarely active enables: AND of three primary inputs (active 1 cycle in 8)
    gates: list[Gate] = []
    enables = []
    for e in range(8):
        a, b, c = rng.sample(inputs, 3)
        gates.append(Gate(f"en{e}.a", "AND", (a, b), f"en{e}_ab"))
        gates.append(Gate(f"en{e}.b", "AND", (f"en{e}_ab", c), f"en{e}"))
        enables.append(f"en{e}")

    # logic gate g reads flip-flops near g * N_FFS / n_logic, so state bits feed
    # nearby logic rather than the whole design
    recent: list[str] = []
    n_logic = N_GATES - len(gates)
    for g in range(n_logic):
        kind = rng.choices(kinds, weights)[0]
        centre = g * N_FFS // n_logic
        ins = []
        for _ in range(_ARITY.get(kind, 2)):
            r = rng.random()
            if r < 0.15 or not recent:
                ins.append(rng.choice(inputs))
            elif r < 0.55:
                lo = max(0, centre - 24)
                ins.append(ff_q[rng.randrange(lo, min(N_FFS, centre + 24))])
            else:
                ins.append(rng.choice(recent[-_WINDOW:]))
        out = f"n{g}"
        gates.append(Gate(f"g{g}", kind, tuple(ins), out))
        recent.append(out)

    # flip-flop i latches a gate output produced near its own position
    ffs = []
    for i in range(N_FFS):
        centre = i * n_logic // N_FFS
        lo = max(0, centre - 16)
        d = f"n{rng.randrange(lo, min(n_logic, centre + 16))}"
        enable = rng.choice(enables) if rng.random() < ENABLE_FRACTION else None
        ffs.append(FlipFlop(_ff_name(i), d, ff_q[i], enable, rng.randint(0, 1)))

    outputs = sorted(rng.sample(recent, N_OUTPUTS), key=lambda n: int(n[1:]))
    return Netlist.build(f"synth_{seed}", inputs, outputs, gates, ffs)


def synth_stimulus(seed: int, netlist: Netlist) -> Stimulus:
    rng = random.Random(f"cdnfi-bench/stimulus/{seed}")
    vectors = tuple(
        {p: rng.randint(0, 1) for p in netlist.inputs} for _ in range(N_CYCLES)
    )
    return Stimulus(N_CYCLES, vectors, ACTIVE_WINDOW, tuple(netlist.outputs))


def synth_documents(seed: int) -> tuple[str, str]:
    """Netlist and stimulus documents for one seed, as written to disk."""
    netlist = synth_netlist(seed)
    return serialize_netlist(netlist), serialize_stimulus(synth_stimulus(seed, netlist))
