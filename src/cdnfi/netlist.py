"""Gate-level netlist model and its on-disk document format.

A netlist is a flat graph of two-valued combinational gates plus edge-triggered
flip-flops, all connected by named nets. Every net has exactly one driver: a
primary input port, a gate output, or a flip-flop Q pin. Documents are JSON
objects with the fields ``name``, ``inputs``, ``outputs``, ``gates`` and
``ffs``; element order in the document is preserved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

# Supported gate kinds and their input counts. MUX2 takes (in0, in1, sel) and
# selects in1 when sel is 1.
GATE_ARITY = {
    "AND": 2,
    "OR": 2,
    "NAND": 2,
    "NOR": 2,
    "XOR": 2,
    "XNOR": 2,
    "NOT": 1,
    "BUF": 1,
    "MUX2": 3,
    "CONST0": 0,
    "CONST1": 0,
}


class NetlistError(Exception):
    pass


class NetlistParseError(NetlistError):
    """Raised for malformed documents; carries the text position if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class NetlistValidationError(NetlistError):
    def __init__(self, violations: list["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"netlist failed validation: {lines}")


@dataclass(frozen=True)
class Gate:
    id: str
    kind: str
    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class FlipFlop:
    name: str
    d: str
    q: str
    enable: Optional[str] = None
    init: int = 0


@dataclass(frozen=True)
class Netlist:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    nets: frozenset[str]
    gates: tuple[Gate, ...]
    flipflops: tuple[FlipFlop, ...]

    @classmethod
    def build(
        cls,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        gates: Iterable[Gate],
        flipflops: Iterable[FlipFlop],
    ) -> "Netlist":
        """Construct a netlist, deriving the net set from all references."""
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        gates = tuple(gates)
        flipflops = tuple(flipflops)
        nets: set[str] = set(inputs) | set(outputs)
        for g in gates:
            nets.update(g.inputs)
            nets.add(g.output)
        for f in flipflops:
            nets.add(f.d)
            nets.add(f.q)
            if f.enable is not None:
                nets.add(f.enable)
        return cls(name, inputs, outputs, frozenset(nets), gates, flipflops)

    def ff_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.flipflops)

    @cached_property
    def levels(self) -> dict[str, int]:
        """Logic level of each gate id, from one pass of ``_gate_levels``
        per netlist; gates on or behind a combinational cycle are absent."""
        return _gate_levels(self)


def is_bit(value: object) -> bool:
    """True for the ints 0 and 1; ``True`` and ``1.0`` are not bits."""
    return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    def __str__(self) -> str:  # subclasses fill in the details
        return self.__class__.__name__


@dataclass(frozen=True)
class DuplicateName(Violation):
    name: str
    element: str

    def __str__(self):
        return f"duplicate {self.element} name '{self.name}'"


@dataclass(frozen=True)
class UnknownGateKind(Violation):
    gate_id: str
    kind: str

    def __str__(self):
        return f"gate '{self.gate_id}' has unknown kind '{self.kind}'"


@dataclass(frozen=True)
class BadArity(Violation):
    gate_id: str
    kind: str
    expected: int
    got: int

    def __str__(self):
        return (
            f"gate '{self.gate_id}' ({self.kind}) expects {self.expected} "
            f"inputs, got {self.got}"
        )


@dataclass(frozen=True)
class BadInitValue(Violation):
    ff: str
    value: object

    def __str__(self):
        return f"flip-flop '{self.ff}' init value {self.value!r} is not 0 or 1"


@dataclass(frozen=True)
class MalformedName(Violation):
    name: str
    element: str

    def __str__(self):
        return f"{self.element} name '{self.name}' is malformed"


@dataclass(frozen=True)
class MultipleDrivers(Violation):
    net: str
    drivers: tuple[str, ...]

    def __str__(self):
        return f"net '{self.net}' has multiple drivers: {', '.join(self.drivers)}"


@dataclass(frozen=True)
class UndrivenNet(Violation):
    net: str
    referenced_by: tuple[str, ...]

    def __str__(self):
        return (
            f"undriven net '{self.net}' "
            f"(referenced by {', '.join(self.referenced_by)})"
        )


@dataclass(frozen=True)
class CombinationalCycle(Violation):
    gate_ids: tuple[str, ...]

    def __str__(self):
        return f"combinational cycle through gates: {' -> '.join(self.gate_ids)}"


def _well_formed_name(name: object) -> bool:
    if not isinstance(name, str) or not name:
        return False
    return all(seg != "" for seg in name.split("."))


def validate(n: Netlist) -> list[Violation]:
    """Check all structural rules; returns an empty list for a clean netlist."""
    violations: list[Violation] = []

    seen_gates: set[str] = set()
    for g in n.gates:
        if not _well_formed_name(g.id):
            violations.append(MalformedName(str(g.id), "gate"))
        if g.id in seen_gates:
            violations.append(DuplicateName(g.id, "gate"))
        seen_gates.add(g.id)
        arity = GATE_ARITY.get(g.kind)
        if arity is None:
            violations.append(UnknownGateKind(g.id, g.kind))
        elif len(g.inputs) != arity:
            violations.append(BadArity(g.id, g.kind, arity, len(g.inputs)))

    seen_ffs: set[str] = set()
    for f in n.flipflops:
        if not _well_formed_name(f.name):
            violations.append(MalformedName(str(f.name), "flip-flop"))
        if f.name in seen_ffs:
            violations.append(DuplicateName(f.name, "flip-flop"))
        seen_ffs.add(f.name)
        if not is_bit(f.init):
            violations.append(BadInitValue(f.name, f.init))

    seen_ports: set[str] = set()
    for p in n.inputs:
        if p in seen_ports:
            violations.append(DuplicateName(p, "input port"))
        seen_ports.add(p)
    seen_out: set[str] = set()
    for p in n.outputs:
        if p in seen_out:
            violations.append(DuplicateName(p, "output port"))
        seen_out.add(p)

    # input ports, gate outputs and FF Q pins drive nets; who drives or reads
    # a net is described only when some net is driven twice or not at all
    driven = [*n.inputs, *(g.output for g in n.gates), *(f.q for f in n.flipflops)]
    read = {net for g in n.gates for net in g.inputs}
    read.update(f.d for f in n.flipflops)
    read.update(f.enable for f in n.flipflops if f.enable is not None)
    read.update(n.outputs)
    driven_set = set(driven)
    if len(driven_set) != len(driven) or not read <= driven_set:
        violations.extend(_net_source_violations(n))

    violations.extend(_find_cycles(n))
    return violations


def _net_source_violations(n: Netlist) -> list[Violation]:
    """``MultipleDrivers`` then ``UndrivenNet`` violations, each naming the
    elements that drive or read its net, in document order."""
    violations: list[Violation] = []
    drivers: dict[str, list[str]] = {}
    for p in n.inputs:
        drivers.setdefault(p, []).append(f"input port '{p}'")
    for g in n.gates:
        drivers.setdefault(g.output, []).append(f"gate '{g.id}'")
    for f in n.flipflops:
        drivers.setdefault(f.q, []).append(f"flip-flop '{f.name}' Q")

    for net in sorted(drivers):
        who = drivers[net]
        if len(who) > 1:
            violations.append(MultipleDrivers(net, tuple(who)))

    refs: dict[str, list[str]] = {}
    for g in n.gates:
        for net in g.inputs:
            refs.setdefault(net, []).append(f"gate '{g.id}'")
    for f in n.flipflops:
        refs.setdefault(f.d, []).append(f"flip-flop '{f.name}' D")
        if f.enable is not None:
            refs.setdefault(f.enable, []).append(f"flip-flop '{f.name}' enable")
    for p in n.outputs:
        refs.setdefault(p, []).append(f"output port '{p}'")

    for net in sorted(refs):
        if net not in drivers:
            violations.append(UndrivenNet(net, tuple(refs[net])))
    return violations


def _gate_dependencies(n: Netlist) -> dict[str, list[str]]:
    """Map gate id -> ids of gates whose outputs feed it (combinational only)."""
    out_to_gate = {g.output: g.id for g in n.gates}
    deps: dict[str, list[str]] = {}
    for g in n.gates:
        deps[g.id] = [out_to_gate[net] for net in g.inputs if net in out_to_gate]
    return deps


def _gate_levels(n: Netlist) -> dict[str, int]:
    """Kahn's algorithm in waves: map gate id -> logic level.

    A gate that no other gate feeds is at level 0, and any other gate one
    level above the highest gate that feeds it. A gate on a combinational
    cycle, or fed through one, never becomes ready and is left out.
    """
    deps = _gate_dependencies(n)
    remaining = {gid: len(d) for gid, d in deps.items()}
    consumers: dict[str, list[str]] = {}
    for gid, d in deps.items():
        for dep in d:
            consumers.setdefault(dep, []).append(gid)
    levels: dict[str, int] = {}
    wave = [gid for gid, count in remaining.items() if count == 0]
    level = 0
    while wave:
        ready = []
        for gid in wave:
            levels[gid] = level
            for c in consumers.get(gid, ()):
                remaining[c] -= 1
                if remaining[c] == 0:
                    ready.append(c)
        wave = ready
        level += 1
    return levels


def _find_cycles(n: Netlist) -> list[Violation]:
    done = n.levels
    if len(done) == len(n.gates):
        return []
    deps = _gate_dependencies(n)
    stuck = [gid for gid in deps if gid not in done]
    if not stuck:
        return []
    # walk dependencies until a gate repeats, then report that loop
    path = [stuck[0]]
    seen = {stuck[0]: 0}
    while True:
        nxt = next(d for d in deps[path[-1]] if d not in done)
        if nxt in seen:
            cycle = path[seen[nxt]:]
            return [CombinationalCycle(tuple(cycle))]
        seen[nxt] = len(path)
        path.append(nxt)


# ---------------------------------------------------------------------------
# document format


def parse_netlist(text: str) -> Netlist:
    """Parse a netlist document; raises unless the result validates cleanly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise NetlistParseError(f"syntax error: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(doc, dict):
        raise NetlistParseError("document root must be an object")
    for key in ("name", "inputs", "outputs", "gates", "ffs"):
        if key not in doc:
            raise NetlistParseError(f"missing required field '{key}'")
    if not isinstance(doc["name"], str):
        raise NetlistParseError("'name' must be a string")
    for key in ("inputs", "outputs", "gates", "ffs"):
        if not isinstance(doc[key], list):
            raise NetlistParseError(f"'{key}' must be a list")
    for key in ("inputs", "outputs"):
        if not all(isinstance(p, str) for p in doc[key]):
            raise NetlistParseError(f"'{key}' must be a list of port names")

    gates = []
    for i, entry in enumerate(doc["gates"]):
        if not isinstance(entry, dict):
            raise NetlistParseError(f"gate entry {i} must be an object")
        try:
            gid, kind, ins, out = entry["id"], entry["kind"], entry["in"], entry["out"]
        except KeyError as e:
            raise NetlistParseError(f"gate entry {i} missing field {e}") from e
        for field, value in (("id", gid), ("kind", kind)):
            if not isinstance(value, str):
                raise NetlistParseError(f"gate entry {i}: '{field}' must be a string")
        if not isinstance(ins, list) or not all(isinstance(x, str) for x in ins):
            raise NetlistParseError(f"gate '{gid}': 'in' must be a list of net names")
        if not isinstance(out, str):
            raise NetlistParseError(f"gate '{gid}': 'out' must be a net name")
        gates.append(Gate(gid, kind, tuple(ins), out))

    ffs = []
    for i, entry in enumerate(doc["ffs"]):
        if not isinstance(entry, dict):
            raise NetlistParseError(f"ff entry {i} must be an object")
        try:
            name, d, q, init = entry["name"], entry["d"], entry["q"], entry["init"]
        except KeyError as e:
            raise NetlistParseError(f"ff entry {i} missing field {e}") from e
        en = entry.get("en")
        for field, value in (("name", name), ("d", d), ("q", q), ("en", en)):
            if not isinstance(value, str) and (field != "en" or value is not None):
                raise NetlistParseError(f"ff entry {i}: '{field}' must be a string")
        ffs.append(FlipFlop(name, d, q, en, init))

    n = Netlist.build(doc["name"], doc["inputs"], doc["outputs"], gates, ffs)
    violations = validate(n)
    if violations:
        raise NetlistValidationError(violations)
    return n


def serialize_netlist(n: Netlist) -> str:
    doc = {
        "name": n.name,
        "inputs": list(n.inputs),
        "outputs": list(n.outputs),
        "gates": [
            {"id": g.id, "kind": g.kind, "in": list(g.inputs), "out": g.output}
            for g in n.gates
        ],
        "ffs": [
            {
                "name": f.name,
                "d": f.d,
                "q": f.q,
                **({"en": f.enable} if f.enable is not None else {}),
                "init": f.init,
            }
            for f in n.flipflops
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_netlist(path) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def save_netlist(n: Netlist, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_netlist(n))
