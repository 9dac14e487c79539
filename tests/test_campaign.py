import json
import random
import re
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cdnfi import campaign
from cdnfi.campaign import (
    RECORD_FIELDS,
    CampaignConfig,
    CampaignError,
    Classification,
    FFTally,
    build_specs,
    log_to_csv,
    resolve_targets,
    result_from_json,
    result_to_json,
    run_campaign,
    run_group,
    run_specs,
    sample_times,
    tally_records,
)
from cdnfi.clocktree import ByName, RandomShuffle, generate_tree
from cdnfi.faults import FaultKind, FaultSpec
from cdnfi.netlist import FlipFlop, Gate, Netlist
from cdnfi.simulator import GoldenTrace, Simulator, Stimulus, StimulusError
from gencircuit import random_netlist, random_stimulus
from oracles import Stepper, replay_injection
from test_netlist import toggle


def autonomous_stimulus(netlist, n_cycles, window=None):
    return Stimulus(
        n_cycles,
        tuple({} for _ in range(n_cycles)),
        window or (0, n_cycles - 1),
        tuple(netlist.outputs),
    )


def random_monitors(rng, netlist, stimulus):
    """The stimulus monitoring a random draw of outputs: maybe none, maybe
    one output more than once."""
    monitors = tuple(rng.choice(netlist.outputs) for _ in range(rng.randint(0, 4)))
    return replace(stimulus, monitors=monitors)


def deadend():
    """The flip-flop's stored value is never observable at any output."""
    return Netlist.build(
        "deadend", ["x"], ["y"],
        [Gate("g", "BUF", ("x",), "y")],
        [FlipFlop("dead", "x", "dead_q", None, 0)],
    )


def held():
    """The flip-flop keeps its stored value, which no output shows."""
    return Netlist.build(
        "held", ["x"], ["y"],
        [Gate("g", "BUF", ("x",), "y")],
        [FlipFlop("h", "h_q", "h_q", None, 0)],
    )


def recirculating():
    ffs = [FlipFlop(f"r{i}", f"r{i}_q", f"r{i}_q", None, i % 2) for i in range(4)]
    return Netlist.build("recirc", [], ["r0_q"], [], ffs)


# ---------------------------------------------------------------------------
# time sampling


def test_degenerate_window_repeats_the_only_cycle():
    cfg = CampaignConfig(FaultKind.SEU, 3, seed=7)
    assert sample_times(cfg, (10, 10)) == [10, 10, 10]


def test_times_stay_in_window_and_are_deterministic():
    cfg = CampaignConfig(FaultKind.SEU, 500, seed=123)
    a = sample_times(cfg, (4, 43))
    b = sample_times(cfg, (4, 43))
    assert a == b
    assert all(4 <= t <= 43 for t in a)
    assert len(set(a)) > 1  # with replacement, but not constant


def test_shared_list_ignores_target():
    cfg = CampaignConfig(FaultKind.SEU, 20, seed=9, shared_time_list=True)
    assert sample_times(cfg, (0, 9), "a") == sample_times(cfg, (0, 9), "b")


def test_per_target_lists_differ_but_are_stable():
    cfg = CampaignConfig(FaultKind.SEU, 20, seed=9, shared_time_list=False)
    a1 = sample_times(cfg, (0, 99), "a")
    a2 = sample_times(cfg, (0, 99), "a")
    b = sample_times(cfg, (0, 99), "b")
    assert a1 == a2
    assert a1 != b


def test_seed_changes_the_draw():
    w = (0, 99)
    a = sample_times(CampaignConfig(FaultKind.SEU, 50, seed=1), w)
    b = sample_times(CampaignConfig(FaultKind.SEU, 50, seed=2), w)
    assert a != b


def test_empty_window_rejected():
    cfg = CampaignConfig(FaultKind.SEU, 1, seed=0)
    with pytest.raises(CampaignError, match="window"):
        sample_times(cfg, (5, 4))


def test_zero_injections_rejected():
    with pytest.raises(CampaignError, match="injections_per_target"):
        CampaignConfig(FaultKind.SEU, 0, seed=0)


# ---------------------------------------------------------------------------
# single injections


def test_toggle_upset_fails_from_injection_cycle():
    n = toggle()
    st = autonomous_stimulus(n, 4)
    sim = Simulator(n)
    assert sim.run(st).rows == ((1,), (0,), (1,), (0,))
    spec = FaultSpec(FaultKind.SEU, "t", 2)
    result = run_specs(sim, st, [spec])
    [record] = result.records
    assert record.classification is Classification.FUNCTIONAL_FAILURE
    assert (record.kind, record.target, record.cycle) == (FaultKind.SEU, "t", 2)
    assert (record.n_reached, record.n_changed) == (1, 1)
    # the upset changed "t", and that injection failed
    assert result.per_ff == {"t": FFTally(0, 0, 1, 1)}


def test_deadend_upset_is_masked():
    n = deadend()
    st = Stimulus(4, tuple({"x": c % 2} for c in range(4)), (0, 3), ("y",))
    spec = FaultSpec(FaultKind.SEU, "dead", 1)
    result = run_specs(Simulator(n), st, [spec])
    [record] = result.records
    assert record.classification is Classification.MASKED
    assert (record.n_reached, record.n_changed) == (1, 1)
    assert result.per_ff == {"dead": FFTally(0, 0, 1, 0)}


def test_recirculating_transient_is_structurally_masked():
    n = recirculating()
    tree = generate_tree(n.ff_names(), 2)
    st = autonomous_stimulus(n, 3)
    spec = FaultSpec(FaultKind.SET, "b", 1)
    result = run_specs(Simulator(n), st, [spec], tree=tree)
    [record] = result.records
    assert (record.n_reached, record.n_changed) == (4, 0)
    assert record.classification is Classification.MASKED
    # the pulse changed no flip-flop
    assert result.per_ff == {name: FFTally() for name in n.ff_names()}


def test_toggle_transient_fails():
    n = toggle()
    tree = generate_tree(n.ff_names(), 1)
    st = autonomous_stimulus(n, 4)
    spec = FaultSpec(FaultKind.SET, "b", 1)
    result = run_specs(Simulator(n), st, [spec], tree=tree)
    [record] = result.records
    assert record.classification is Classification.FUNCTIONAL_FAILURE
    assert (record.n_reached, record.n_changed) == (1, 1)
    assert result.per_ff == {"t": FFTally(1, 1, 0, 0)}


def test_injection_validations(monkeypatch):
    # campaign-wide conditions are checked by run_specs, before any
    # injection runs or any worker starts
    n = toggle()
    st = autonomous_stimulus(n, 4)
    golden = Simulator(n).run(st)
    short = GoldenTrace(st.monitors, golden.rows[:2])
    # the right shape, one bit off the simulated run
    stale = GoldenTrace(st.monitors, golden.rows[:2] + (((1 - golden.rows[2][0]),),) + golden.rows[3:])

    def must_not_run(*args, **kwargs):
        raise AssertionError("a campaign input must be checked before any injection or pool")

    monkeypatch.setattr(campaign, "run_group", must_not_run)
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", must_not_run)
    # a supplied golden trace that fits a stimulus the netlist cannot run
    unknown_monitor = Stimulus(4, st.input_vectors, st.active_window, ("nope",))
    fitting_golden = GoldenTrace(("nope",), golden.rows)
    upsets = [FaultSpec(FaultKind.SEU, "t", 1)] * 2
    transients = [FaultSpec(FaultKind.SET, "b", 1)] * 2
    cases = [
        (CampaignError, "cycle 9", st, upsets + [FaultSpec(FaultKind.SEU, "t", 9)], None, golden),
        (CampaignError, "clock tree", st, transients, None, golden),
        (CampaignError, "golden", st, upsets, None, short),
        (CampaignError, "golden trace differs from the simulated run at cycle 2$", st, upsets, None,
         stale),
        (StimulusError, "outputs of 'toggle': nope", unknown_monitor, upsets, None, fitting_golden),
    ]
    for error, message, stimulus, specs, tree, golden_arg in cases:
        for workers in (1, 2):
            with pytest.raises(error, match=message):
                run_specs(Simulator(n), stimulus, specs, tree=tree, golden=golden_arg, workers=workers)


@settings(deadline=None)
@given(seed=hst.integers(min_value=0, max_value=10_000), kind=hst.sampled_from(list(FaultKind)))
def test_run_group_matches_full_replay(seed, kind):
    # groups of injections at one cycle, one lane each, against the
    # reference stepper's reset/settle/fault/step_cycle replay of each, on
    # random circuits and specs; a one-lane group is a single injection
    rng = random.Random(seed)
    n = random_netlist(rng)
    st = random_monitors(rng, n, random_stimulus(rng, n))
    sim = Simulator(n)
    checkpoints = []
    golden = sim.run(st, checkpoints)
    monitors = set(sim.slots(st.monitors))
    tree = generate_tree(n.ff_names(), rng.randint(1, 3), RandomShuffle(seed))
    targets = tree.buffer_ids() if kind is FaultKind.SET else n.ff_names()
    for width in (1, rng.randint(1, len(targets))):
        cycle = rng.randrange(st.n_cycles)
        specs = [FaultSpec(kind, t, cycle) for t in rng.sample(targets, width)]
        replays = [replay_injection(Stepper(n), st, golden, spec, tree) for spec in specs]
        # each lane starts from the flip-flops the oracle's fault flipped
        settled = checkpoints[cycle].settled
        state = {}
        for lane, (_, changed) in enumerate(replays):
            for name in changed:
                q = sim.pins[name][0]
                state[q] = state.get(q, -settled[q]) ^ (1 << lane)
        failed = run_group(sim, checkpoints, monitors, cycle, state, width)
        assert failed >> width == 0
        assert [bool(failed >> lane & 1) for lane in range(width)] == [
            record.classification is Classification.FUNCTIONAL_FAILURE for record, _ in replays
        ]


@pytest.mark.parametrize("build, target, classification, cycles", [
    # the first monitored row after the fault differs from the golden one
    (toggle, "t", Classification.FUNCTIONAL_FAILURE, 1),
    # the edge reloads the struck flip-flop: the state is back on the golden path
    (deadend, "dead", Classification.MASKED, 1),
    # the struck flip-flop keeps its flipped value to the end, and no output shows it
    (held, "h", Classification.MASKED, 4),
], ids=["mismatch", "reconverged", "end-of-stimulus"])
def test_injection_stop_paths(monkeypatch, build, target, classification, cycles):
    n = build()
    st = Stimulus(5, tuple({p: c % 2 for p in n.inputs} for c in range(5)), (0, 4), tuple(n.outputs))
    sim = Simulator(n)
    ticks = []
    tick = sim.tick_lanes

    def counted(*args):
        ticks.append(args)
        return tick(*args)

    monkeypatch.setattr(sim, "tick_lanes", counted)
    result = run_specs(sim, st, [FaultSpec(FaultKind.SEU, target, 1)])
    [record] = result.records
    assert record.classification is classification
    failed = int(classification is Classification.FUNCTIONAL_FAILURE)
    assert result.per_ff == {target: FFTally(0, 0, 1, failed)}
    assert len(ticks) == cycles


def with_stop_paths(netlist, copies):
    """The netlist plus ``copies`` flip-flops of each way an upset stops: a
    toggler its own output shows (mismatch at the first edge), one the
    first edge reloads from an input (reconverged) and one that keeps its
    flipped value unseen (masked at the end of the stimulus)."""
    x = netlist.inputs[0]
    gates, ffs, outputs = list(netlist.gates), list(netlist.flipflops), list(netlist.outputs)
    for i in range(copies):
        gates.append(Gate(f"tog{i}", "NOT", (f"t{i}_q",), f"t{i}_d"))
        ffs += [FlipFlop(f"t.{i}", f"t{i}_d", f"t{i}_q", None, 0),
                FlipFlop(f"r.{i}", x, f"r{i}_q", None, 0),
                FlipFlop(f"h.{i}", f"h{i}_q", f"h{i}_q", None, 1)]
        outputs.append(f"t{i}_q")
    return Netlist.build(netlist.name, netlist.inputs, outputs, gates, ffs)


def stepper_golden(ref, stimulus):
    """The fault-free trace, simulated on the reference stepper."""
    state = ref.reset()
    rows = []
    for inputs in stimulus.input_vectors:
        state = ref.step_cycle(state, inputs)
        rows.append(tuple(state.net_values[m] for m in stimulus.monitors))
    return GoldenTrace(stimulus.monitors, tuple(rows))


# a fifth of the profile's examples: each starts a worker pool, and a wide
# one replays a few hundred injections from reset
@settings(deadline=None, max_examples=settings.default.max_examples // 5)
@given(seed=hst.integers(min_value=0, max_value=10_000), kind=hst.sampled_from(list(FaultKind)),
       wide=hst.booleans())
def test_run_specs_matches_full_replay(seed, kind, wide):
    # whole campaigns, checkpointed, stopped early, deduplicated and run in
    # lane groups, against the reference stepper's full replay from reset of
    # every listed injection, with the first and last cycles injected and
    # some injections listed more than once; a wide campaign also injects
    # every target at one cycle, a group of more than 64 lanes that fail,
    # reconverge and reach the end of the stimulus side by side
    rng = random.Random(seed)
    n = random_netlist(rng)
    st = random_monitors(rng, n, random_stimulus(rng, n))
    if wide:
        n = with_stop_paths(n, 25)
        st = replace(st, monitors=st.monitors + tuple(f"t{i}_q" for i in range(25)))
    tree = generate_tree(n.ff_names(), 1 if wide else rng.randint(1, 3), RandomShuffle(seed))
    targets = tree.buffer_ids() if kind is FaultKind.SET else n.ff_names()
    cycles = [0, st.n_cycles - 1] + [rng.randrange(st.n_cycles) for _ in range(6)]
    specs = [FaultSpec(kind, rng.choice(targets), c) for c in cycles]
    if wide:
        cycle = rng.randrange(st.n_cycles)
        specs += [FaultSpec(kind, t, cycle) for t in targets]
        assert len(targets) > 64
    specs += rng.choices(specs, k=len(specs) // 2)
    rng.shuffle(specs)
    ref = Stepper(n)
    golden = stepper_golden(ref, st)
    replays = [replay_injection(ref, st, golden, spec, tree) for spec in specs]
    per_ff = {}
    for name in n.ff_names():
        hits = sum(name in changed for _, changed in replays)
        fails = sum(name in changed for record, changed in replays
                    if record.classification is Classification.FUNCTIONAL_FAILURE)
        per_ff[name] = FFTally(hits, fails, 0, 0) if kind is FaultKind.SET else FFTally(0, 0, hits, fails)
    for workers, supplied in ((1, None), (2, golden)):
        with mock.patch.object(campaign, "POOL_MIN_PER_WORKER", 1):
            result = run_specs(Simulator(n), st, specs, tree=tree, golden=supplied, workers=workers)
        assert result.records == tuple(record for record, _ in replays)
        assert result.per_ff == per_ff
        assert result.golden == golden
    if wide and kind is FaultKind.SEU:
        outcomes = {(r.target[0], r.classification) for r in result.records if r.cycle == cycle}
        assert {("t", Classification.FUNCTIONAL_FAILURE), ("r", Classification.MASKED),
                ("h", Classification.MASKED)} <= outcomes


def test_pool_never_starts_more_workers_than_injections(crc8, crc8_stimulus, monkeypatch):
    sizes = []
    inits = []
    tasks = []
    masks = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            inits.append(initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            tasks.append(items)
            masks.append([fn(item) for item in items])
            return iter(masks[-1])

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(campaign, "_worker_ctx", {})
    ffs = crc8.ff_names()
    specs = [FaultSpec(FaultKind.SEU, ffs[0], 15), FaultSpec(FaultKind.SEU, ffs[1], 19)]
    serial = run_specs(Simulator(crc8), crc8_stimulus, specs)
    # too few distinct injections per worker for a pool to pay for itself,
    # however often they are listed
    assert run_specs(Simulator(crc8), crc8_stimulus, specs * 1024, workers=2).records == serial.records * 1024
    assert sizes == []
    distinct = [FaultSpec(FaultKind.SEU, ff, c) for c in range(crc8_stimulus.n_cycles) for ff in ffs]
    many = distinct[:2 * campaign.POOL_MIN_PER_WORKER]
    pooled = run_specs(Simulator(crc8), crc8_stimulus, many, workers=64)
    assert sizes == [2]
    assert pooled == run_specs(Simulator(crc8), crc8_stimulus, many)
    # a worker gets the kernel, the checkpoints and the monitor slots once;
    # no spec or tree crosses
    [(sim, checkpoints, monitors)] = inits
    assert (type(sim), type(checkpoints), type(monitors)) == (Simulator, list, set)
    # a task is one cycle's group, struck here: its cycle, the Q slots its
    # upsets flipped with their lane values, and its lane count
    [groups] = tasks
    assert [(cycle, lanes) for cycle, _, lanes in groups] == list(Counter(s.cycle for s in many).items())
    for task in groups:
        cycle, state, lanes = task
        assert (type(task), type(cycle), type(state), type(lanes)) == (tuple, int, dict, int)
        assert all(type(q) is int and type(bits) is int for q, bits in state.items())
        assert len(state) == lanes
    # and a worker returns only the group's failure mask
    [returned] = masks
    assert all(type(mask) is int and mask >> lanes == 0 for mask, (_, _, lanes) in zip(returned, groups))
    assert sum(map(int.bit_count, returned)) == pooled.totals.failures
    monkeypatch.setattr(campaign, "POOL_MIN_PER_WORKER", 1)
    sizes.clear()
    assert run_specs(Simulator(crc8), crc8_stimulus, specs, workers=64) == serial
    # a task is a whole group, so two cycles keep two workers busy and one
    # cycle none
    assert sizes == [2]
    run_specs(Simulator(crc8), crc8_stimulus, [FaultSpec(FaultKind.SEU, ff, 15) for ff in ffs[:3]], workers=64)
    # a single injection runs in this process
    run_specs(Simulator(crc8), crc8_stimulus, specs[:1], workers=64)
    assert sizes == [2]


# ---------------------------------------------------------------------------
# campaigns


def test_upset_campaign_totals(lfsr, lfsr_stimulus, lfsr_golden):
    cfg = CampaignConfig(FaultKind.SEU, 5, seed=11)
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden, label="u")
    n_ffs = len(lfsr.ff_names())
    assert result.totals.injected == n_ffs * 5
    # an upset reaches and changes exactly the struck flip-flop
    assert result.totals.reached == result.totals.changed == result.totals.injected
    assert result.totals.unchanged == 0
    assert 0 <= result.totals.failures <= result.totals.injected
    assert set(result.per_target) == set(lfsr.ff_names())
    for tally in result.per_target.values():
        assert tally.injected == 5
    for name, ff in result.per_ff.items():
        assert ff.times_upset == 5
        assert 0 <= ff.times_upset_and_failed <= ff.times_upset
        assert ff.times_changed == 0
    assert result.label == "u"


def test_transient_campaign_totals(lfsr, lfsr_stimulus, lfsr_golden):
    tree = generate_tree(lfsr.ff_names(), 3)
    cfg = CampaignConfig(FaultKind.SET, 4, seed=5)
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden)
    n_ffs = len(lfsr.ff_names())
    stages = tree.stages
    assert result.totals.injected == len(tree.buffer_ids()) * 4
    # every stage's cones partition the flip-flops, so each shared time
    # contributes stages * n_ffs reached flip-flops
    assert result.totals.reached == 4 * stages * n_ffs
    assert result.totals.changed + result.totals.unchanged == result.totals.reached
    for bid, tally in result.per_target.items():
        assert tally.reached == 4 * len(tree.cone(bid))
    changed_sum = sum(f.times_changed for f in result.per_ff.values())
    assert changed_sum == result.totals.changed


def test_changed_totals_conserved_across_groupings(lfsr, lfsr_stimulus, lfsr_golden):
    # same seed and a shared time list: every equal-depth network sees the
    # same per-cycle disagreement pattern, summed stage by stage
    results = []
    for grouping in (ByName(), RandomShuffle(3), RandomShuffle(4)):
        tree = generate_tree(lfsr.ff_names(), 3, grouping)
        cfg = CampaignConfig(FaultKind.SET, 6, seed=21, shared_time_list=True)
        results.append(
            run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden)
        )
    assert len({r.totals.changed for r in results}) == 1
    assert len({r.totals.unchanged for r in results}) == 1
    assert len({r.totals.reached for r in results}) == 1


def test_worker_count_does_not_change_the_result(lfsr, lfsr_stimulus, lfsr_golden, monkeypatch):
    monkeypatch.setattr(campaign, "POOL_MIN_PER_WORKER", 1)
    cfg = CampaignConfig(FaultKind.SEU, 2, seed=77)
    serial = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden)
    parallel = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden, workers=2)
    assert serial == parallel
    assert result_to_json(serial) == result_to_json(parallel)
    assert log_to_csv(serial) == log_to_csv(parallel)


def test_campaign_is_deterministic(lfsr, lfsr_stimulus, lfsr_golden):
    cfg = CampaignConfig(FaultKind.SEU, 3, seed=13)
    a = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden)
    b = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden)
    assert result_to_json(a) == result_to_json(b)


def test_explicit_targets_subset(lfsr, lfsr_stimulus, lfsr_golden):
    cfg = CampaignConfig(FaultKind.SEU, 2, seed=1, targets=("probe.tap", "lfsr.0"))
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden)
    assert list(result.per_target) == ["probe.tap", "lfsr.0"]
    assert result.totals.injected == 4
    # untargeted flip-flops still appear in the per-ff table, at zero
    assert result.per_ff["cnt.0"].times_upset == 0


def test_unknown_target_rejected(lfsr, lfsr_stimulus):
    cfg = CampaignConfig(FaultKind.SEU, 1, seed=0, targets=("nope",))
    with pytest.raises(CampaignError, match="nope"):
        run_campaign(Simulator(lfsr), lfsr_stimulus, cfg)


def test_set_mode_requires_tree(lfsr):
    cfg = CampaignConfig(FaultKind.SET, 1, seed=0)
    with pytest.raises(CampaignError, match="clock tree"):
        resolve_targets(lfsr, cfg, None)


def test_mixed_kind_spec_list_rejected(lfsr, lfsr_stimulus):
    specs = [
        FaultSpec(FaultKind.SEU, "lfsr.0", 5),
        FaultSpec(FaultKind.SET, "b", 5),
    ]
    with pytest.raises(CampaignError, match="mix"):
        run_specs(Simulator(lfsr), lfsr_stimulus, specs)


def test_run_specs_rejects_cone_outside_netlist(lfsr, lfsr_stimulus, lfsr_golden, monkeypatch):
    foreign = generate_tree([f"x{i}" for i in range(4)], 2)
    specs = [FaultSpec(FaultKind.SET, b, 5) for b in foreign.buffer_ids()]

    def must_not_run(*args, **kwargs):
        raise AssertionError("the cone check must come before any injection or pool")

    monkeypatch.setattr(campaign, "run_group", must_not_run)
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", must_not_run)
    for workers in (1, 2):
        with pytest.raises(CampaignError, match="cone of buffer 'b'.*'lfsr_counter'.*'x0'"):
            run_specs(
                Simulator(lfsr), lfsr_stimulus, specs, tree=foreign,
                golden=lfsr_golden, workers=workers,
            )


@pytest.mark.parametrize("kind, known, unknown, message", [
    (FaultKind.SEU, "lfsr.0", "nope", "unknown flip-flop target(s): nope"),
    (FaultKind.SET, "b", "b9", "unknown buffer target(s): b9"),
])
def test_run_specs_rejects_unknown_target(lfsr, lfsr_stimulus, lfsr_golden, monkeypatch,
                                          kind, known, unknown, message):
    tree = generate_tree(lfsr.ff_names(), 3)
    specs = [FaultSpec(kind, known, 5), FaultSpec(kind, unknown, 5)]

    def must_not_run(*args, **kwargs):
        raise AssertionError("the target check must come before any injection or pool")

    monkeypatch.setattr(campaign, "run_group", must_not_run)
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", must_not_run)
    for workers in (1, 2):
        with pytest.raises(CampaignError, match=re.escape(message)):
            run_specs(
                Simulator(lfsr), lfsr_stimulus, specs, tree=tree,
                golden=lfsr_golden, workers=workers,
            )


def test_build_specs_orders_targets_then_times(lfsr, lfsr_stimulus):
    cfg = CampaignConfig(FaultKind.SEU, 3, seed=2, targets=("cnt.0", "cnt.1"))
    specs = build_specs(lfsr, lfsr_stimulus, cfg)
    assert [s.target for s in specs] == ["cnt.0"] * 3 + ["cnt.1"] * 3
    times = sample_times(cfg, lfsr_stimulus.active_window)
    assert [s.cycle for s in specs] == times * 2


def test_run_specs_computes_golden_when_missing(lfsr, lfsr_stimulus, lfsr_golden):
    specs = [FaultSpec(FaultKind.SEU, "lfsr.3", 9)]
    auto = run_specs(Simulator(lfsr), lfsr_stimulus, specs)
    explicit = run_specs(Simulator(lfsr), lfsr_stimulus, specs, golden=lfsr_golden)
    assert auto == explicit


# ---------------------------------------------------------------------------
# logs


def test_csv_log_layout(lfsr, lfsr_stimulus, lfsr_golden):
    cfg = CampaignConfig(FaultKind.SEU, 2, seed=4, targets=("hold.a",))
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden, label="demo")
    text = log_to_csv(result)
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert '"label": "demo"' in lines[0]
    assert lines[1] == "kind,target,cycle,n_reached,n_changed,classification"
    assert len(lines) == 2 + result.totals.injected
    for line in lines[2:]:
        kind, target, cycle, n_reached, n_changed, cls = line.split(",")
        assert kind == "seu" and target == "hold.a"
        assert n_reached == n_changed == "1"
        assert cls in ("masked", "functional_failure")


def test_result_from_json_rejects_non_result_documents():
    with pytest.raises(CampaignError, match="not valid JSON"):
        result_from_json("not json{{")
    with pytest.raises(CampaignError, match="bad or missing field"):
        result_from_json('{"config": {"mode": "seu"}}')
    with pytest.raises(CampaignError, match="bad or missing field"):
        result_from_json('[1, 2, 3]')


def test_result_label_must_be_a_plain_file_name(lfsr, lfsr_stimulus, lfsr_golden):
    cfg = CampaignConfig(FaultKind.SEU, 1, seed=0, targets=("lfsr.0",))
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, golden=lfsr_golden)
    doc = json.loads(result_to_json(result))
    for label in ("a/b", "a\\b", ".", ".."):
        doc["config"]["label"] = label
        with pytest.raises(CampaignError, match="not a plain file name"):
            result_from_json(json.dumps(doc))
    # an empty label is a file-name fallback in the report, not a path
    doc["config"]["label"] = ""
    assert result_from_json(json.dumps(doc)).label == ""


def test_json_round_trip(lfsr, lfsr_stimulus, lfsr_golden):
    tree = generate_tree(lfsr.ff_names(), 3, RandomShuffle(8))
    for mode in FaultKind:
        for shared in (True, False):
            cfg = CampaignConfig(mode, 3, seed=6, shared_time_list=shared)
            result = run_campaign(
                Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden, label="rt"
            )
            assert result.records and result.totals.failures > 0
            back = result_from_json(result_to_json(result))
            # the whole result comes back: config, records, tallies and per_ff
            assert back == result, (mode, shared)
            assert back.label == "rt"
            # a rebuilt result serializes to the identical document
            assert result_to_json(back) == result_to_json(result)


def test_records_are_the_logged_rows(lfsr, lfsr_stimulus, lfsr_golden):
    tree = generate_tree(lfsr.ff_names(), 3)
    cfg = CampaignConfig(FaultKind.SET, 2, seed=9)
    result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden)
    rows = log_to_csv(result).splitlines()
    assert tuple(rows[1].split(",")) == RECORD_FIELDS
    assert rows[2:] == [",".join(map(str, r.row())) for r in result.records]
    doc = json.loads(result_to_json(result))
    assert doc["records"] == [dict(zip(RECORD_FIELDS, r.row())) for r in result.records]
    assert (result.per_target, result.totals) == tally_records(result.records)
    for r in result.records:
        assert r.n_reached == len(tree.cone(r.target))
        assert 0 <= r.n_changed <= r.n_reached
