"""Virtual clock distribution networks.

Real clock tree layouts are rarely available at the netlist level, so the
network is synthesized: the flip-flop list is ordered (by hierarchical name,
or by a seeded shuffle) and recursively halved until the halves would drop
below the requested minimum fan-out. Each split point is a clock buffer whose
cone is the set of flip-flops fed through it; the root buffer feeds everything.

Splitting is decided per stage: a stage's nodes are all split or none are.
Node sizes within a stage differ by at most one, so the decision is only ever
ambiguous in a corner case, and resolving it stage-wide keeps every stage's
cones an exact partition of the flip-flop set. Campaign accounting relies on
that partition, so ``ClockTree`` enforces it on every tree, however made.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .seeding import PRNG_NAME, fisher_yates


class ClockTreeError(Exception):
    pass


class UnknownBufferError(ClockTreeError):
    pass


@dataclass(frozen=True)
class ByName:
    """Group flip-flops by lexicographic order of their hierarchical names."""


@dataclass(frozen=True)
class RandomShuffle:
    """Group flip-flops by a seeded Fisher-Yates shuffle."""

    seed: int


Grouping = Union[ByName, RandomShuffle]


@dataclass(frozen=True)
class ClockBuffer:
    id: str
    stage: int
    parent: Optional[str]
    cone: tuple[str, ...]


@dataclass(frozen=True)
class ClockTree:
    """``buffers[0]`` is the root; each of the ``stages`` stages clocks every
    flip-flop of the root's cone once, and a child only its parent's."""

    buffers: tuple[ClockBuffer, ...]
    stages: int
    min_fanout: int
    grouping: Grouping

    def __post_init__(self):
        if type(self.stages) is not int or self.stages < 1:
            raise ClockTreeError(f"clock tree 'stages' must be an integer >= 1, got {self.stages!r}")
        if not self.buffers:
            raise ClockTreeError("clock tree lists no buffers")
        by_id = {b.id: b for b in self.buffers}
        if len(by_id) != len(self.buffers):
            raise ClockTreeError("clock tree has duplicate buffer ids")
        object.__setattr__(self, "_by_id", by_id)
        if self.root.parent is not None or self.root.stage != 1:
            raise ClockTreeError(f"root buffer '{self.root.id}' must sit at stage 1 with no parent")
        for b in self.buffers[1:]:
            if b.parent not in by_id or b.stage != by_id[b.parent].stage + 1:
                raise ClockTreeError(f"buffer '{b.id}' is not one stage below a listed parent {b.parent!r}")
        if {b.stage for b in self.buffers} != set(range(1, self.stages + 1)):
            raise ClockTreeError(f"clock tree buffers do not fill stages 1 to {self.stages}")
        # stage -> flip-flop -> the buffer clocking it; the root's parent None clocks nothing at stage 0
        owner: dict[int, dict[str, str]] = {stage: {} for stage in range(self.stages + 1)}
        for b in sorted(self.buffers, key=lambda b: b.stage):
            own, above = owner[b.stage], owner[b.stage - 1]
            for name in b.cone:
                seen = own.get(name)
                if seen is not None:
                    raise ClockTreeError(f"cone of buffer '{b.id}' names flip-flop '{name}' more than once"
                                         if seen == b.id else f"buffers '{seen}' and '{b.id}' share '{name}'")
                if above.get(name) != b.parent:
                    raise ClockTreeError(f"buffer '{b.id}' clocks flip-flop '{name}', its parent does not")
                own[name] = b.id
        dropped = [(stage, name) for stage in range(2, self.stages + 1) for name in self.root.cone
                   if name not in owner[stage]]
        if dropped:
            raise ClockTreeError("no buffer at stage {} clocks flip-flop '{}'".format(*dropped[0]))

    def buffer(self, buffer_id: str) -> ClockBuffer:
        try:
            return self._by_id[buffer_id]
        except KeyError:
            raise UnknownBufferError(f"no clock buffer '{buffer_id}'") from None

    def cone(self, buffer_id: str) -> tuple[str, ...]:
        return self.buffer(buffer_id).cone

    @property
    def root(self) -> ClockBuffer:
        return self.buffers[0]

    def leaves(self) -> tuple[ClockBuffer, ...]:
        return tuple(b for b in self.buffers if b.stage == self.stages)

    def buffer_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buffers)


@dataclass(frozen=True)
class TopologyStats:
    stages: int
    buffer_count: int
    per_stage_counts: tuple[int, ...]
    min_leaf_fanout: int
    max_leaf_fanout: int
    total_cone_size: int


def generate_tree(
    ffs: Iterable[str],
    min_fanout: int,
    grouping: Grouping = ByName(),
) -> ClockTree:
    """Build the virtual clock network over the given flip-flop names."""
    ffs = list(ffs)
    if not ffs:
        raise ClockTreeError("cannot build a clock network over zero flip-flops")
    if len(set(ffs)) != len(ffs):
        raise ClockTreeError("flip-flop names must be unique")
    if min_fanout < 1:
        raise ClockTreeError(f"min_fanout must be >= 1, got {min_fanout}")

    if isinstance(grouping, ByName):
        order = sorted(ffs)
    elif isinstance(grouping, RandomShuffle):
        order = fisher_yates(ffs, random.Random(grouping.seed))
    else:
        raise ClockTreeError(f"unsupported grouping {grouping!r}")

    # cones are presented in the caller's (document) order regardless of the
    # grouping used to slice them
    doc_pos = {name: i for i, name in enumerate(ffs)}

    # level-by-level splitting over index ranges of the grouped order;
    # the larger half goes left on odd sizes
    levels: list[list[tuple[str, Optional[str], int, int]]] = [
        [("b", None, 0, len(order))]
    ]
    while True:
        current = levels[-1]
        smallest = min(hi - lo for _, _, lo, hi in current)
        if smallest // 2 < min_fanout:
            break
        nxt = []
        for bid, _, lo, hi in current:
            mid = lo + (hi - lo + 1) // 2
            nxt.append((bid + "0", bid, lo, mid))
            nxt.append((bid + "1", bid, mid, hi))
        levels.append(nxt)

    buffers = []
    for stage, level in enumerate(levels, start=1):
        for bid, parent, lo, hi in level:
            members = sorted(order[lo:hi], key=doc_pos.__getitem__)
            buffers.append(ClockBuffer(bid, stage, parent, tuple(members)))
    return ClockTree(tuple(buffers), len(levels), min_fanout, grouping)


def tree_stats(tree: ClockTree) -> TopologyStats:
    per_stage = [0] * tree.stages
    total = 0
    for b in tree.buffers:
        per_stage[b.stage - 1] += 1
        total += len(b.cone)
    leaf_sizes = [len(b.cone) for b in tree.leaves()]
    return TopologyStats(
        stages=tree.stages,
        buffer_count=len(tree.buffers),
        per_stage_counts=tuple(per_stage),
        min_leaf_fanout=min(leaf_sizes),
        max_leaf_fanout=max(leaf_sizes),
        total_cone_size=total,
    )


# ---------------------------------------------------------------------------
# document format


def serialize_tree(tree: ClockTree) -> str:
    if isinstance(tree.grouping, ByName):
        grouping: dict = {"mode": "by_name"}
    else:
        grouping = {"mode": "random", "seed": tree.grouping.seed, "prng": PRNG_NAME}
    doc = {
        "min_fanout": tree.min_fanout,
        "grouping": grouping,
        "stages": tree.stages,
        "buffers": [
            {"id": b.id, "stage": b.stage, "parent": b.parent, "cone": list(b.cone)}
            for b in tree.buffers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_buffer(buffer: dict) -> ClockBuffer:
    bid, cone = buffer["id"], buffer["cone"]
    if not isinstance(bid, str):
        raise ClockTreeError(f"buffer id {bid!r} must be a string")
    if not isinstance(cone, list) or not all(isinstance(x, str) for x in cone):
        raise ClockTreeError(f"buffer {bid!r}: 'cone' must be a list of flip-flop names")
    return ClockBuffer(bid, buffer["stage"], buffer["parent"], tuple(cone))


def parse_tree(text: str) -> ClockTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ClockTreeError(f"syntax error: {e.msg} (line {e.lineno})") from e
    try:
        mode = doc["grouping"]["mode"]
        if mode == "by_name":
            grouping: Grouping = ByName()
        elif mode == "random":
            grouping = RandomShuffle(doc["grouping"]["seed"])
        else:
            raise ClockTreeError(f"unknown grouping mode '{mode}'")
        buffers = tuple(_parse_buffer(b) for b in doc["buffers"])
        return ClockTree(buffers, doc["stages"], doc["min_fanout"], grouping)
    except (KeyError, TypeError) as e:
        raise ClockTreeError(f"malformed clock tree document: {e!r}") from e


def load_tree(path) -> ClockTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def save_tree(tree: ClockTree, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_tree(tree))
