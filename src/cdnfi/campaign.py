"""Statistical fault-injection campaigns against a golden reference run.

``run_specs`` checks the campaign's inputs once (``check_targets`` decides
that every target can be injected), then makes the campaign's one fault-free
pass, which gives the golden trace and a checkpoint of the net values of
every cycle; a supplied golden trace must equal that pass. An injection is a
function of its spec (kind, target, cycle), so each distinct spec strikes
once, in ``run_specs``, and every copy in the list takes its result.
Injections do not replay from reset. A fault strikes mid-cycle (after the
combinational settle, before the edge): ``apply_set`` or ``apply_seu`` names
the flip-flops it flips in that cycle's checkpoint, and their flipped Q
values are the first difference of its bit lane, one per distinct spec of
the cycle, from the fault-free run. ``run_group``, all a pool worker runs,
takes a group's (cycle, state, lanes), simulates only what differs in some
lane and returns the mask of the lanes that failed. A lane is a functional
failure, and drops out, at the first edge after which a monitored output
differs from that run. It drops out as masked once its flip-flop state after
an edge is back on the fault-free path, since the rest of the run then
depends only on that state and the inputs, or at the end of the stimulus.
Injection times are drawn uniformly (with replacement) from the stimulus
active window by a seeded generator, so a campaign is a pure function of its
inputs and seed. A result holds one ``InjectionRecord`` per listed injection
in list order, the row its log and JSON write; its tallies are a function of
those records (``tally_records``), which keeps multi-worker runs and reruns
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import AbstractSet, Collection, Iterable, Mapping, Optional, Sequence

from .clocktree import ClockTree
from .faults import FaultKind, FaultSpec, InjectionEffect, apply_set, apply_seu
from .netlist import Netlist
from .seeding import derive_rng
from .simulator import Checkpoint, GoldenTrace, Simulator, Stimulus


class CampaignError(Exception):
    pass


class Classification(str, Enum):
    MASKED = "masked"
    FUNCTIONAL_FAILURE = "functional_failure"


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign; the stimulus travels alongside, not inside.

    ``targets=None`` selects every buffer of the clock tree in SET mode and
    every flip-flop of the netlist in SEU mode. With ``shared_time_list`` the
    one sampled time list is reused for every target, which makes state
    coverage comparable across targets and keeps the changed/unchanged totals
    of same-depth networks identical.
    """

    mode: FaultKind
    injections_per_target: int
    seed: int
    targets: Optional[tuple[str, ...]] = None
    shared_time_list: bool = True

    def __post_init__(self):
        if self.injections_per_target < 1:
            raise CampaignError(
                f"injections_per_target must be >= 1, got {self.injections_per_target}"
            )


@dataclass(frozen=True)
class InjectionRecord:
    """One injection as the log and the result JSON write it."""

    kind: FaultKind
    target: str
    cycle: int
    n_reached: int
    n_changed: int
    classification: Classification

    def row(self) -> list:
        """Field values in ``RECORD_FIELDS`` order, enums as their values."""
        values = (getattr(self, name) for name in RECORD_FIELDS)
        return [v.value if isinstance(v, Enum) else v for v in values]


RECORD_FIELDS = tuple(f.name for f in fields(InjectionRecord))


@dataclass
class Tally:
    """Injection counters of a whole campaign or of one of its targets."""

    injected: int = 0
    reached: int = 0
    changed: int = 0
    unchanged: int = 0
    failures: int = 0


@dataclass
class FFTally:
    times_changed: int = 0
    times_changed_and_failed: int = 0
    times_upset: int = 0
    times_upset_and_failed: int = 0

    def counts(self, mode: FaultKind) -> tuple[int, int]:
        """(times disturbed, times disturbed and failed) under one fault model."""
        if mode is FaultKind.SET:
            return self.times_changed, self.times_changed_and_failed
        return self.times_upset, self.times_upset_and_failed


@dataclass
class CampaignResult:
    netlist_name: str
    mode: FaultKind
    seed: Optional[int]
    injections_per_target: Optional[int]
    shared_time_list: Optional[bool]
    records: tuple[InjectionRecord, ...]
    totals: Tally
    per_target: dict[str, Tally]
    per_ff: dict[str, FFTally]
    label: str = ""
    # the trace of the campaign's fault-free pass; never serialized
    golden: Optional[GoldenTrace] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# time sampling


def sample_times(cfg: CampaignConfig, window: tuple[int, int], target: Optional[str] = None) -> list[int]:
    """Draw injection cycles uniformly, with replacement, from the window.

    The shared list ignores ``target``; with per-target lists each target gets
    its own deterministic stream derived from the seed and the target name.
    """
    first, last = window
    if first > last:
        raise CampaignError(f"empty injection window [{first}, {last}]")
    label = "times" if cfg.shared_time_list or target is None else f"times/{target}"
    rng = derive_rng(cfg.seed, label)
    return [rng.randrange(first, last + 1) for _ in range(cfg.injections_per_target)]


# ---------------------------------------------------------------------------
# injection groups


def run_group(
    sim: Simulator,
    checkpoints: Sequence[Checkpoint],
    monitors: AbstractSet[int],
    cycle: int,
    state: Mapping[int, int],
    lanes: int,
) -> int:
    """Run ``lanes`` injections struck at one cycle from its checkpoint, one
    bit lane each, in one pass, and return the mask of the lanes that failed.

    ``checkpoints`` are those ``Simulator.run`` records for a stimulus and
    ``monitors`` the slots of its monitors. ``state`` holds the Q slots the
    strikes flipped at the cycle's fault point with their lane values, as
    ``Simulator.tick_lanes`` takes it; from then on the group is kept as
    the flip-flops and nets that differ from the fault-free run in some
    lane. A lane in which a monitored output differs after an edge is a
    functional failure; one with no flip-flop differing after an edge is
    masked, and so is every lane still running at the last checkpoint.
    Either way the lane drops out, and the group stops when none is left.
    Each lane's result equals a full replay of its injection from reset
    compared with the fault-free trace.
    """
    live = (1 << lanes) - 1
    failed = 0
    for c in range(cycle, len(checkpoints)):
        state, fail, live = sim.tick_lanes(state, checkpoints[c], monitors, live)
        failed |= fail
        if not live:
            break
    return failed


# ---------------------------------------------------------------------------
# campaign driving

# a pool costs a fork per worker and pickles each task, a cycle group's
# struck Q slots with their lane values; below this many distinct injections
# per worker it does not pay: on two cores, two workers at 512 each took 0.7
# to 1.8 times the serial time on crc8 and on the 1233-flip-flop synthetic
# circuit (at 1024 each, 0.6 to 1.3 times)
POOL_MIN_PER_WORKER = 512

# per-worker context for process pools, set once by the initializer (under
# fork the workers inherit the compiled kernel), so a task is only a group's
# (cycle, state, lanes) and its result the group's failure mask
_worker_ctx: dict = {}


def _init_worker(sim, checkpoints, monitors):
    _worker_ctx["args"] = (sim, checkpoints, monitors)


def _run_group(task: tuple[int, dict[int, int], int]) -> int:
    return run_group(*_worker_ctx["args"], *task)


def resolve_targets(
    netlist: Netlist,
    cfg: CampaignConfig,
    tree: Optional[ClockTree],
) -> tuple[str, ...]:
    """The config's targets, or every buffer (SET) or flip-flop (SEU).

    Explicit targets are not checked here; ``run_specs`` checks them.
    """
    if cfg.mode is FaultKind.SET and tree is None:
        raise CampaignError("SET campaigns need a clock tree")
    if cfg.targets is not None:
        return tuple(cfg.targets)
    return tree.buffer_ids() if cfg.mode is FaultKind.SET else netlist.ff_names()


def build_specs(
    netlist: Netlist,
    stimulus: Stimulus,
    cfg: CampaignConfig,
    tree: Optional[ClockTree] = None,
) -> list[FaultSpec]:
    """Expand a campaign config into the full ordered injection list."""
    shared = sample_times(cfg, stimulus.active_window) if cfg.shared_time_list else None
    specs = []
    for target in resolve_targets(netlist, cfg, tree):
        times = shared or sample_times(cfg, stimulus.active_window, target)
        specs.extend(FaultSpec(cfg.mode, target, t) for t in times)
    return specs


def check_targets(
    netlist: Netlist,
    mode: FaultKind,
    targets: Collection[str],
    tree: Optional[ClockTree],
) -> None:
    """Raise ``CampaignError`` unless every target can be injected.

    An SEU target is a netlist flip-flop, an SET target a buffer of ``tree``,
    whose root's cone, which holds all others, must name only netlist flip-flops.
    """
    if mode is FaultKind.SET and tree is None:
        raise CampaignError("clock transient injection needs a clock tree")
    ffs = set(netlist.ff_names())
    known = set(tree.buffer_ids()) if mode is FaultKind.SET else ffs
    unknown = [t for t in targets if t not in known]
    if unknown:
        kind = "buffer" if mode is FaultKind.SET else "flip-flop"
        raise CampaignError(f"unknown {kind} target(s): {', '.join(unknown)}")
    if mode is FaultKind.SEU:
        return
    missing = [name for name in tree.root.cone if name not in ffs]
    if missing:
        raise CampaignError(
            f"cone of buffer '{tree.root.id}' names {len(missing)} flip-flop(s) "
            f"missing from netlist '{netlist.name}', first '{missing[0]}'"
        )


def run_specs(
    sim: Simulator,
    stimulus: Stimulus,
    specs: Sequence[FaultSpec],
    tree: Optional[ClockTree] = None,
    golden: Optional[GoldenTrace] = None,
    workers: int = 1,
) -> CampaignResult:
    """Run an explicit injection list and aggregate in list order.

    The campaign's inputs are checked here, once, before any injection runs
    or any worker starts: the list holds one fault kind, every target passes
    ``check_targets``, every injection cycle lies inside the stimulus, the
    stimulus fits the netlist, and a supplied golden trace has the
    stimulus's monitors and cycle count and equals the fault-free pass. That
    pass, the campaign's only one, runs after the first three checks and
    gives the golden trace, which the result carries, and the checkpoints the
    injections start from. Records and tallies come from each distinct
    spec's effect and its lane of its group's failure mask. The result
    carries no config (``seed`` and the like are ``None``); ``run_campaign``
    fills it in.
    """
    netlist = sim.netlist
    kinds = {s.kind for s in specs}
    if len(kinds) > 1:
        raise CampaignError("an injection list must not mix fault kinds")
    mode = kinds.pop() if kinds else FaultKind.SET
    if specs:
        check_targets(netlist, mode, dict.fromkeys(s.target for s in specs), tree)
    for spec in specs:
        if not 0 <= spec.cycle < stimulus.n_cycles:
            raise CampaignError(
                f"injection cycle {spec.cycle} outside stimulus of {stimulus.n_cycles} cycles"
            )
    checkpoints: list[Checkpoint] = []
    simulated = sim.run(stimulus, checkpoints)  # checks the stimulus before it runs
    if golden is not None:
        if golden.monitors != stimulus.monitors or len(golden.rows) != stimulus.n_cycles:
            raise CampaignError("golden trace does not match the stimulus monitors/cycles")
        for cycle, (row, want) in enumerate(zip(golden.rows, simulated.rows)):
            if row != want:
                raise CampaignError(f"golden trace differs from the simulated run at cycle {cycle}")

    # an injection is a function of its spec, so each distinct spec strikes
    # once, here, and is one bit lane of the group of its cycle
    groups: dict[int, list[FaultSpec]] = {}
    for spec in dict.fromkeys(specs):
        groups.setdefault(spec.cycle, []).append(spec)
    effects: dict[FaultSpec, InjectionEffect] = {}
    tasks = []
    for cycle, group in groups.items():
        settled = checkpoints[cycle].settled
        state: dict[int, int] = {}
        for lane, spec in enumerate(group):
            if spec.kind is FaultKind.SET:
                effect = apply_set(sim, tree, settled, spec.target)
            else:
                effect = apply_seu(spec.target)
            for name in effect.changed:
                q = sim.pins[name][0]
                state[q] = state.get(q, -settled[q]) ^ (1 << lane)
            effects[spec] = effect
        tasks.append((cycle, state, len(group)))
    monitors = set(sim.slots(stimulus.monitors))
    n_workers = min(workers, len(effects) // POOL_MIN_PER_WORKER, len(tasks))
    if n_workers > 1:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(sim, checkpoints, monitors),
        ) as pool:
            masks = list(pool.map(_run_group, tasks))
    else:
        masks = [run_group(sim, checkpoints, monitors, *task) for task in tasks]
    failed = {spec for group, mask in zip(groups.values(), masks)
              for lane, spec in enumerate(group) if mask >> lane & 1}
    outcome = {
        spec: (InjectionRecord(spec.kind, spec.target, spec.cycle, effect.reached, len(effect.changed),
                               Classification.FUNCTIONAL_FAILURE if spec in failed else Classification.MASKED),
               effect.changed)
        for spec, effect in effects.items()
    }
    runs = [outcome[spec] for spec in specs]

    # aggregation depends only on the spec list order, never completion order
    records = tuple(record for record, _ in runs)
    per_target, totals = tally_records(records)
    # per flip-flop: the injections that changed it, and those that also failed
    hits = Counter(name for _, changed in runs for name in changed)
    fails = Counter(name for record, changed in runs
                    if record.classification is Classification.FUNCTIONAL_FAILURE
                    for name in changed)
    per_ff = {
        name: FFTally(hits[name], fails[name], 0, 0) if mode is FaultKind.SET
        else FFTally(0, 0, hits[name], fails[name])
        for name in netlist.ff_names()
    }

    return CampaignResult(
        netlist_name=netlist.name,
        mode=mode,
        seed=None,
        injections_per_target=None,
        shared_time_list=None,
        records=records,
        totals=totals,
        per_target=per_target,
        per_ff=per_ff,
        golden=simulated,
    )


def tally_records(records: Iterable[InjectionRecord]) -> tuple[dict[str, Tally], Tally]:
    """Per-target tallies, in first-seen target order, and their sum."""
    per_target: dict[str, Tally] = {}
    totals = Tally()
    for r in records:
        for tally in (per_target.setdefault(r.target, Tally()), totals):
            tally.injected += 1
            tally.reached += r.n_reached
            tally.changed += r.n_changed
            tally.unchanged += r.n_reached - r.n_changed
            if r.classification is Classification.FUNCTIONAL_FAILURE:
                tally.failures += 1
    return per_target, totals


def run_campaign(
    sim: Simulator,
    stimulus: Stimulus,
    cfg: CampaignConfig,
    tree: Optional[ClockTree] = None,
    golden: Optional[GoldenTrace] = None,
    workers: int = 1,
    label: str = "",
) -> CampaignResult:
    specs = build_specs(sim.netlist, stimulus, cfg, tree)
    result = run_specs(sim, stimulus, specs, tree=tree, golden=golden, workers=workers)
    return replace(
        result, mode=cfg.mode, seed=cfg.seed,
        injections_per_target=cfg.injections_per_target,
        shared_time_list=cfg.shared_time_list, label=label,
    )


# ---------------------------------------------------------------------------
# campaign logs


def _config_header(result: CampaignResult) -> dict:
    return {
        "netlist": result.netlist_name,
        "mode": result.mode.value,
        "seed": result.seed,
        "injections_per_target": result.injections_per_target,
        "shared_time_list": result.shared_time_list,
        "label": result.label,
    }


def log_to_csv(result: CampaignResult) -> str:
    """One record per injection, with the config echoed in a comment line."""
    buf = io.StringIO()
    buf.write("# " + json.dumps(_config_header(result), sort_keys=True) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(RECORD_FIELDS)
    w.writerows(r.row() for r in result.records)
    return buf.getvalue()


def result_to_json(result: CampaignResult) -> str:
    doc = {
        "config": _config_header(result),
        "totals": vars(result.totals),
        "per_target": [{"target": t, **vars(tally)} for t, tally in result.per_target.items()],
        "per_ff": {name: vars(f) for name, f in result.per_ff.items()},
        "records": [dict(zip(RECORD_FIELDS, r.row())) for r in result.records],
    }
    return json.dumps(doc, indent=2) + "\n"


def _is_count(n) -> bool:
    return type(n) is int and n >= 0


def _record_from_row(row: dict, mode: FaultKind) -> InjectionRecord:
    values = {name: row[name] for name in RECORD_FIELDS}
    values.update(kind=FaultKind(values["kind"]), classification=Classification(values["classification"]))
    r = InjectionRecord(**values)
    if not all(map(_is_count, (r.cycle, r.n_reached, r.n_changed))):
        raise CampaignError(f"record {row} holds a count that is not a non-negative integer")
    if not isinstance(r.target, str) or r.kind is not mode or r.n_changed > r.n_reached:
        raise CampaignError(f"record {row} needs kind '{mode.value}', a str target, n_changed <= n_reached")
    return r


def result_from_json(text: str) -> CampaignResult:
    """Rebuild a campaign result from its structured log, exactly as written.

    The document must agree with itself: every count is a non-negative
    integer, no record changes more flip-flops than it reached,
    ``per_target`` is the tally of the records, ``totals`` is its sum, and
    the ``per_ff`` counters of the result's mode sum to ``totals.changed``.
    The label, which report file names carry, is a plain file name or empty.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CampaignError(f"campaign result is not valid JSON: {e}") from e
    try:
        cfg = doc["config"]
        mode = FaultKind(cfg["mode"])
        label = cfg.get("label", "")
        if "/" in label or "\\" in label or label in (".", ".."):
            raise CampaignError(f"label {label!r} is not a plain file name")
        records = tuple(_record_from_row(row, mode) for row in doc["records"])
        per_target, totals = tally_records(records)
        if doc["per_target"] != [{"target": t, **vars(tally)} for t, tally in per_target.items()]:
            raise CampaignError("per_target disagrees with the tally of the records")
        if doc["totals"] != vars(totals):
            raise CampaignError(f"totals {doc['totals']} are not the sum of per_target {vars(totals)}")
        per_ff = {name: FFTally(**f) for name, f in doc["per_ff"].items()}
        if not all(_is_count(n) for f in per_ff.values() for n in vars(f).values()):
            raise CampaignError("per_ff holds a count that is not a non-negative integer")
        changed = sum(f.counts(mode)[0] for f in per_ff.values())
        if changed != totals.changed:
            raise CampaignError(f"per_ff counts {changed} changes, totals.changed is {totals.changed}")
        return CampaignResult(
            netlist_name=cfg["netlist"],
            mode=mode,
            seed=cfg["seed"],
            injections_per_target=cfg["injections_per_target"],
            shared_time_list=cfg["shared_time_list"],
            records=records,
            totals=totals,
            per_target=per_target,
            per_ff=per_ff,
            label=label,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CampaignError(
            f"not a campaign result document (bad or missing field: {e})"
        ) from e
