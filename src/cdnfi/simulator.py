"""Cycle-accurate two-valued simulation.

Each cycle applies that cycle's input vector, settles the combinational
logic, fires the clock edge (every flip-flop simultaneously takes
``enable ? D : Q``), then settles again so monitored outputs are sampled
after the edge. ``Simulator.run`` is the fault-free pass from reset, on one
flat list of net values whose Q slots hold the flip-flop state: it records
the golden trace and, on request, a ``Checkpoint`` of every cycle, the
settled values before its edge and after it. Injections do not replay from
reset. The faulty runs that start at one cycle are simulated together, one
bit lane each, as their difference from the fault-free one:
``Simulator.tick_lanes`` takes the Q slots that differ in some lane at the
fault point of a cycle (at the strike, which ``campaign.run_specs`` makes,
those of the flip-flops each fault flips), re-evaluates only the gates and
flip-flops those differences reach, on every lane at once, against that
cycle's checkpoint, and tells in which lanes a monitored output differs
after the edge and in which no flip-flop does; ``campaign.run_group``, all a
pool worker runs, loops it into one failure mask. The netlist is checked
once, when it is parsed, and the stimulus by ``run`` with
``validate_stimulus`` before the loop.

The kernel compiles the netlist into a plan sorted by logic level, from the
levels the netlist computed once for its cycle check, and then by opcode. A
full settle dispatches once per run of one opcode, not once per gate.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Optional

from .netlist import GATE_ARITY, Netlist, NetlistError, is_bit


class SimulationError(Exception):
    pass


class MissingInputError(SimulationError):
    pass


class StimulusError(SimulationError):
    pass


@dataclass(frozen=True)
class Stimulus:
    n_cycles: int
    input_vectors: tuple[dict[str, int], ...]
    active_window: tuple[int, int]
    monitors: tuple[str, ...]


@dataclass(frozen=True)
class GoldenTrace:
    """Reference output recording: one row per cycle, one bit per monitor."""

    monitors: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.monitors)
        for row in self.rows:
            w.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GoldenTrace":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise StimulusError("trace file is empty")
        monitors = tuple(rows[0])
        data = []
        for i, row in enumerate(rows[1:]):
            if len(row) != len(monitors):
                raise StimulusError(f"trace row {i} has {len(row)} columns, expected {len(monitors)}")
            try:
                bits = tuple(int(x) for x in row)
            except ValueError as e:
                raise StimulusError(f"trace row {i} holds a non-integer value") from e
            if any(b not in (0, 1) for b in bits):
                raise StimulusError(f"trace row {i} holds a non-binary value")
            data.append(bits)
        return cls(monitors, tuple(data))


class Checkpoint(NamedTuple):
    """The fault-free net values of one cycle, one byte per value-list slot:
    ``settled`` after its inputs settle, where a fault strikes, and
    ``sampled`` after its edge settles, where the monitors are read."""

    settled: bytes
    sampled: bytes


# opcode table for the compiled evaluation plan
_OPS = {
    "AND": 0, "OR": 1, "NOT": 2, "XOR": 3, "NAND": 4,
    "NOR": 5, "XNOR": 6, "BUF": 7, "MUX2": 8, "CONST0": 9, "CONST1": 10,
}
# inputs each opcode reads
_ARITY = tuple(GATE_ARITY[kind] for kind in _OPS)


class Simulator:
    """Compiled simulation kernel for one netlist, which must validate cleanly
    (``parse_netlist`` ensures it).

    ``_plan`` holds one ``(opcode, in0, in1, in2, out)`` entry of value-list
    slots per gate, sorted by logic level and then by opcode; ``_runs`` cuts
    it into maximal runs of one opcode for ``_settle``. A run may span
    levels, since any level-sorted order is topological. ``tick_lanes``
    walks the same plan by index, so its heap pops gates in topological
    order.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.net_names = sorted(netlist.nets)  # net_names[i] is slot i of a value list
        self._net_ids = {net: i for i, net in enumerate(self.net_names)}
        # by logic level, then opcode, then document position (a stable
        # sort); a gate on or behind a combinational cycle has no level
        levels = netlist.levels
        if len(levels) != len(netlist.gates):
            stuck = sorted(set(g.id for g in netlist.gates) - set(levels))
            raise NetlistError(f"combinational cycle involving gates: {', '.join(stuck)}")
        gates = sorted(netlist.gates, key=lambda g: (levels[g.id], _OPS[g.kind]))
        plan = []
        for g in gates:
            ins = [self._net_ids[x] for x in g.inputs]
            ins += [0] * (3 - len(ins))
            plan.append((_OPS[g.kind], ins[0], ins[1], ins[2], self._net_ids[g.output]))
        self._plan = tuple(plan)
        # (opcode, its gates) for each maximal run of one opcode
        self._runs = tuple(
            (op, tuple(run)) for op, run in itertools.groupby(self._plan, itemgetter(0))
        )
        # flip-flop name -> its (Q, D, enable) slots, enable -1 when it has none
        self.pins = {
            f.name: (
                self._net_ids[f.q],
                self._net_ids[f.d],
                self._net_ids[f.enable] if f.enable is not None else -1,
            )
            for f in netlist.flipflops
        }
        self._pin_list = tuple(self.pins.values())
        self._input_ids = {p: self._net_ids[p] for p in netlist.inputs}
        self._q_ids = tuple(q for q, _, _ in self._pin_list)

    def _write_inputs(self, v: list[int], inputs: Mapping[str, int]) -> None:
        for port, idx in self._input_ids.items():
            v[idx] = inputs[port]

    def _settle(self, v: list[int]) -> None:
        for op, gates in self._runs:
            if op == 0:
                for _, a, b, _, out in gates:
                    v[out] = v[a] & v[b]
            elif op == 1:
                for _, a, b, _, out in gates:
                    v[out] = v[a] | v[b]
            elif op == 2:
                for _, a, _, _, out in gates:
                    v[out] = v[a] ^ 1
            elif op == 3:
                for _, a, b, _, out in gates:
                    v[out] = v[a] ^ v[b]
            elif op == 4:
                for _, a, b, _, out in gates:
                    v[out] = (v[a] & v[b]) ^ 1
            elif op == 5:
                for _, a, b, _, out in gates:
                    v[out] = (v[a] | v[b]) ^ 1
            elif op == 6:
                for _, a, b, _, out in gates:
                    v[out] = v[a] ^ v[b] ^ 1
            elif op == 7:
                for _, a, _, _, out in gates:
                    v[out] = v[a]
            elif op == 8:
                for _, a, b, sel, out in gates:
                    v[out] = v[b] if v[sel] else v[a]
            elif op == 9:
                for *_, out in gates:
                    v[out] = 0
            else:
                for *_, out in gates:
                    v[out] = 1

    def slots(self, nets: Iterable[str]) -> list[int]:
        """The value-list slots of these nets, in order."""
        return [self._net_ids[net] for net in nets]

    def tick_lanes(
        self, state: Mapping[int, int], checkpoint: Checkpoint, monitors: AbstractSet[int], live: int
    ) -> tuple[dict[int, int], int, int]:
        """One cycle of a group of faulty runs, one bit lane per run, each kept
        as its difference from the fault-free cycle that ``checkpoint`` records.

        A slot's values in all lanes are one int, bit *i* holding lane *i*'s;
        a slot outside the difference has its fault-free value in every
        lane, ``-base[slot]``, which is 0 or -1 (every bit set). ``state``
        maps the Q slots that differ in some lane at the fault point, after
        the inputs settle, to their lane values, and ``live`` holds the
        lanes still running. The
        differences are settled, the edge fires and the differences settle
        again; only the gates and flip-flops a difference reaches are
        evaluated. Returns the Q slots that differ in a live lane after the
        edge with their lane values, the next cycle's ``state``; the live
        lanes in which a ``monitors`` slot then differs from the fault-free
        run (failed); and the live lanes that neither failed nor are back on
        the fault-free path, with no Q slot differing (still live).
        """
        settled, sampled = checkpoint
        diff = dict(state)
        self._spread_lanes(settled, diff)
        pins = self._pin_list
        after = {}
        held = 0
        for f in self._latchers.union(diff):
            q, d, en = pins[f]
            bit = diff.get(d, -settled[d])
            if en >= 0:
                # the latch rule enable ? D : Q as a lane multiplexer
                old = diff.get(q, -settled[q])
                bit = old ^ ((old ^ bit) & diff.get(en, -settled[en]))
            base = -sampled[q]
            off = (bit ^ base) & live
            if off:
                after[q] = off ^ base
                held |= off
        diff = dict(after)
        self._spread_lanes(sampled, diff)
        failed = 0
        for m in diff.keys() & monitors:
            failed |= diff[m] ^ -sampled[m]
        return after, failed, held & ~failed

    def _spread_lanes(self, base: bytes, diff: dict[int, int]) -> None:
        """Settle the differences ``diff`` from the settled values ``base``,
        in every lane at once: every gate that reads a differing slot is
        evaluated, in plan order, and its output joins ``diff`` when it
        differs from ``base`` in some lane."""
        plan = self._plan
        flat, ends = self._fanout.flat, self._fanout.ends
        queued = self._fanout.union(diff)
        pending = sorted(queued)
        get = diff.get
        pop, push = heapq.heappop, heapq.heappush
        while pending:
            op, i0, i1, i2, out = plan[pop(pending)]
            a = get(i0, -base[i0])
            b = get(i1, -base[i1])
            if op == 0:
                bit = a & b
            elif op == 1:
                bit = a | b
            elif op == 2:
                bit = ~a
            elif op == 3:
                bit = a ^ b
            elif op == 4:
                bit = ~(a & b)
            elif op == 5:
                bit = ~(a | b)
            elif op == 6:
                bit = ~(a ^ b)
            elif op == 7:
                bit = a
            elif op == 8:
                bit = a ^ ((a ^ b) & get(i2, -base[i2]))
            elif op == 9:
                bit = 0
            else:
                bit = -1
            if bit != -base[out]:
                diff[out] = bit
                for g in flat[ends[out]:ends[out + 1]]:
                    if g not in queued:
                        queued.add(g)
                        push(pending, g)

    @cached_property
    def _fanout(self) -> "_Readers":
        """Per slot, the plan indices of the gates that read it, in plan order."""
        return _Readers(len(self.net_names), (
            (g, (i0, i1, i2)[:_ARITY[op]]) for g, (op, i0, i1, i2, _) in enumerate(self._plan)
        ))

    @cached_property
    def _latchers(self) -> "_Readers":
        """Per slot, the indices of the flip-flops whose Q, D or enable it is."""
        return _Readers(len(self.net_names), (
            (f, [slot for slot in pins if slot >= 0]) for f, pins in enumerate(self._pin_list)
        ))

    def run(self, stimulus: Stimulus, checkpoints: Optional[list[Checkpoint]] = None) -> GoldenTrace:
        """The fault-free pass: check the stimulus, then simulate it from
        reset, sampling the monitors after every edge.

        When ``checkpoints`` is a list, the pass appends the ``Checkpoint``
        of every cycle to it.
        """
        validate_stimulus(self.netlist, stimulus)
        mon_ids = self.slots(stimulus.monitors)
        v = [0] * len(self.net_names)
        for q, f in zip(self._q_ids, self.netlist.flipflops):
            v[q] = f.init
        rows = []
        for inputs in stimulus.input_vectors:
            self._write_inputs(v, inputs)
            self._settle(v)
            if checkpoints is not None:
                settled = bytes(v)
            # the edge: every Q takes enable ? D : Q, each D read before any Q is written
            latched = [v[d] if en < 0 or v[en] else v[q] for q, d, en in self._pin_list]
            for q, bit in zip(self._q_ids, latched):
                v[q] = bit
            self._settle(v)
            if checkpoints is not None:
                checkpoints.append(Checkpoint(settled, bytes(v)))
            rows.append(tuple(v[m] for m in mon_ids))
        return GoldenTrace(stimulus.monitors, tuple(rows))


class _Readers:
    """Per value-list slot, the readers of that slot: those of slot ``s`` are
    ``flat[ends[s]:ends[s + 1]]``. Two flat lists of ints, not a container
    per slot: thousands of new containers, built inside a campaign, set off
    a full collection of the cyclic garbage collector there, and whether it
    fell inside varied with the netlist."""

    def __init__(self, n_slots: int, reads: Iterable[tuple[int, Iterable[int]]]):
        read_slots, read_by = [], []
        for reader, slots in reads:
            for slot in set(slots):
                read_slots.append(slot)
                read_by.append(reader)
        ends = [0] * (n_slots + 1)
        for slot in read_slots:
            ends[slot + 1] += 1
        for slot in range(n_slots):
            ends[slot + 1] += ends[slot]
        flat = [0] * len(read_slots)
        fill = ends[:-1]
        for slot, reader in zip(read_slots, read_by):
            flat[fill[slot]] = reader
            fill[slot] += 1
        self.ends = ends
        self.flat = flat

    def union(self, slots: Iterable[int]) -> set[int]:
        """The readers of any of these slots."""
        flat, ends = self.flat, self.ends
        readers = set()
        for slot in slots:
            readers.update(flat[ends[slot]:ends[slot + 1]])
        return readers


# ---------------------------------------------------------------------------
# stimulus documents


def validate_stimulus(netlist: Netlist, st: Stimulus) -> None:
    """Monitors must be outputs; each cycle has one input vector, which gives
    a bit to every primary input and to nothing else."""
    missing = [m for m in st.monitors if m not in netlist.outputs]
    if missing:
        raise StimulusError(
            f"monitors not among outputs of '{netlist.name}': {', '.join(missing)}"
        )
    if len(st.input_vectors) != st.n_cycles:
        raise StimulusError(
            f"{len(st.input_vectors)} input vectors for {st.n_cycles} cycles"
        )
    inputs = set(netlist.inputs)
    for cycle, vec in enumerate(st.input_vectors):
        for port in netlist.inputs:
            if port not in vec:
                raise MissingInputError(f"cycle {cycle} has no value for input '{port}'")
        for port, bit in vec.items():
            if port not in inputs:
                raise SimulationError(
                    f"cycle {cycle}: '{port}' is not a primary input of '{netlist.name}'"
                )
            if not is_bit(bit):
                raise SimulationError(f"cycle {cycle} input '{port}' value {bit!r} is not a bit")


def parse_stimulus(text: str) -> Stimulus:
    """Parse a stimulus document.

    ``vectors`` maps cycle numbers to input assignments; a cycle that is not
    listed inherits the previous cycle's full vector. Cycle 0 must be present.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StimulusError(f"syntax error: {e.msg} (line {e.lineno})") from e
    if not isinstance(doc, dict):
        raise StimulusError("stimulus root must be an object")
    for key in ("n_cycles", "active_window", "monitors", "vectors"):
        if key not in doc:
            raise StimulusError(f"missing required field '{key}'")
    n_cycles = doc["n_cycles"]
    if type(n_cycles) is not int or n_cycles < 1:
        raise StimulusError("'n_cycles' must be a positive integer")
    window = doc["active_window"]
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(type(x) is int for x in window)
    ):
        raise StimulusError("'active_window' must be [first, last]")
    first, last = window
    if not (0 <= first <= last < n_cycles):
        raise StimulusError(
            f"active window [{first}, {last}] does not fit in {n_cycles} cycles"
        )
    monitors = doc["monitors"]
    if not isinstance(monitors, list) or not all(isinstance(m, str) for m in monitors):
        raise StimulusError("'monitors' must be a list of output names")

    raw = doc["vectors"]
    if not isinstance(raw, dict):
        raise StimulusError("'vectors' must map cycle numbers to input assignments")
    by_cycle: dict[int, dict[str, int]] = {}
    for key, vec in raw.items():
        try:
            cycle = int(key)
        except ValueError as e:
            raise StimulusError(f"vector key '{key}' is not a cycle number") from e
        if not (0 <= cycle < n_cycles):
            raise StimulusError(f"vector cycle {cycle} outside 0..{n_cycles - 1}")
        if not isinstance(vec, dict):
            raise StimulusError(f"vector for cycle {cycle} must be an object")
        for port, bit in vec.items():
            if not is_bit(bit):
                raise StimulusError(f"cycle {cycle} input '{port}' value {bit!r} is not a bit")
        by_cycle[cycle] = dict(vec)
    if 0 not in by_cycle:
        raise StimulusError("cycle 0 vector is required")

    expanded = []
    current: dict[str, int] = {}
    for cycle in range(n_cycles):
        if cycle in by_cycle:
            current = by_cycle[cycle]
        expanded.append(dict(current))
    return Stimulus(n_cycles, tuple(expanded), (first, last), tuple(monitors))


def serialize_stimulus(st: Stimulus) -> str:
    vectors: dict[str, dict[str, int]] = {}
    previous: dict[str, int] | None = None
    for cycle, vec in enumerate(st.input_vectors):
        if vec != previous:
            vectors[str(cycle)] = dict(sorted(vec.items()))
            previous = vec
    doc = {
        "n_cycles": st.n_cycles,
        "active_window": list(st.active_window),
        "monitors": list(st.monitors),
        "vectors": vectors,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_stimulus(path) -> Stimulus:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stimulus(fh.read())


def load_trace(path) -> GoldenTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return GoldenTrace.from_csv(fh.read())


def save_trace(trace: GoldenTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_csv())
