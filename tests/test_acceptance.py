"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS/FAIL`` line (visible with ``pytest -s``). The checks are
exact unless a tolerance is stated in the assertion itself.
"""

import random
import shutil
import time
from contextlib import contextmanager
from fractions import Fraction

from cdnfi import campaign
from cdnfi.bundled import circuit_path
from cdnfi.campaign import CampaignConfig, Classification, run_campaign, run_specs, tally_records
from cdnfi.cli import main as cli_main
from cdnfi.clocktree import ByName, RandomShuffle, generate_tree, tree_stats
from cdnfi.faults import FaultKind, FaultSpec, apply_set
from cdnfi.netlist import FlipFlop, Netlist
from cdnfi.report import as_fraction, combine_fit, fdr, overlap
from cdnfi.simulator import Simulator, Stimulus
from gencircuit import random_netlist
from oracles import SimState, Stepper, explicit_pulse_oracle, fault_on_state


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL — {description}")
        raise
    print(f"[criterion {n}] PASS — {description}")


def ff_names(count):
    return [f"ff{i:04d}" for i in range(count)]


def test_criterion_01_tree_topology():
    with criterion(1, "clock-tree topology at both reference sizes"):
        t0 = time.perf_counter()
        large = tree_stats(generate_tree(ff_names(1233), 16))
        small = tree_stats(generate_tree(ff_names(9), 2))
        elapsed = time.perf_counter() - t0
        assert large.stages == 7
        assert large.buffer_count == 127
        assert {large.min_leaf_fanout, large.max_leaf_fanout} <= {19, 20}
        assert small.stages == 3
        assert small.buffer_count == 7
        assert {small.min_leaf_fanout, small.max_leaf_fanout} <= {2, 3}
        assert elapsed < 1.0


def test_criterion_02_reached_arithmetic(lfsr, lfsr_stimulus, lfsr_golden):
    with criterion(2, "reached totals equal injections x stages x flip-flops"):
        # a real full-network campaign obeys the formula exactly
        tree = generate_tree(lfsr.ff_names(), 2)
        cfg = CampaignConfig(FaultKind.SET, 170, seed=3)
        result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden)
        n_ffs = len(lfsr.ff_names())
        assert result.totals.reached == 170 * tree.stages * n_ffs
        assert result.totals.injected == 170 * len(tree.buffer_ids())

        # the formula instantiated at the reference scale, whose stage count
        # is exactly what the reference topology produces
        reference = generate_tree(ff_names(1233), 16)
        assert reference.stages == 7
        reached = 170 * reference.stages * 1233
        assert reached == 1_467_270
        assert abs(reached / 21_590 - 67.96) <= 0.005


def test_criterion_03_accounting_identity(lfsr, lfsr_stimulus, lfsr_golden):
    cases = 0
    with criterion(3, "reached = changed + unchanged on >=1000 randomized injections"):
        for seed in range(120):
            rng = random.Random(seed)
            netlist = random_netlist(rng)
            tree = generate_tree(netlist.ff_names(), 1, RandomShuffle(seed))
            sim, ref = Simulator(netlist), Stepper(netlist)
            for _ in range(2):
                inputs = {p: rng.randint(0, 1) for p in netlist.inputs}
                state = ref.settle(ref.reset(), inputs)
                for buffer_id in tree.buffer_ids():
                    cone = tree.cone(buffer_id)
                    _, effect = fault_on_state(
                        sim, ref, state, lambda v: apply_set(sim, tree, v, buffer_id)
                    )
                    # unchanged is the cone minus changed, so the identity
                    # holds when changed lies in the cone and reached counts it
                    assert set(effect.changed) <= set(cone)
                    assert len(set(effect.changed)) == len(effect.changed)
                    assert effect.reached == len(cone)
                    pulsed = explicit_pulse_oracle(ref, tree, state, buffer_id)
                    moved = {n for n in cone if pulsed.ff_values[n] != state.ff_values[n]}
                    assert set(effect.changed) == moved
                    cases += 1
        assert cases >= 1000, f"only {cases} randomized injections checked"

        # the identity also holds for whole-campaign totals and every record
        tree = generate_tree(lfsr.ff_names(), 3, RandomShuffle(17))
        cfg = CampaignConfig(FaultKind.SET, 5, seed=29)
        result = run_campaign(Simulator(lfsr), lfsr_stimulus, cfg, tree=tree, golden=lfsr_golden)
        assert result.totals.reached == result.totals.changed + result.totals.unchanged
        for record in result.records:
            assert record.n_reached == len(tree.cone(record.target))
            assert 0 <= record.n_changed <= record.n_reached
        assert (result.per_target, result.totals) == tally_records(result.records)
        for tally in result.per_target.values():
            assert tally.reached == tally.changed + tally.unchanged


def test_criterion_04_oracle_equivalence(crc8, crc8_stimulus, lfsr, lfsr_stimulus):
    with criterion(4, "fast transient injection equals the explicit-pulse reference everywhere"):
        t0 = time.perf_counter()
        jobs = [(crc8, crc8_stimulus, 4), (lfsr, lfsr_stimulus, 2)]
        compared = 0
        for netlist, stimulus, fanout in jobs:
            trees = [
                generate_tree(netlist.ff_names(), fanout, ByName()),
                generate_tree(netlist.ff_names(), fanout, RandomShuffle(1)),
            ]
            sim, ref = Simulator(netlist), Stepper(netlist)
            state = ref.reset()
            for cycle in range(stimulus.n_cycles):
                inputs = stimulus.input_vectors[cycle]
                mid = ref.settle(state, inputs)
                for tree in trees:
                    for buffer_id in tree.buffer_ids():
                        fast, _ = fault_on_state(
                            sim, ref, mid, lambda v: apply_set(sim, tree, v, buffer_id)
                        )
                        slow = explicit_pulse_oracle(ref, tree, mid, buffer_id)
                        assert fast == slow, (netlist.name, buffer_id, cycle)
                        compared += 1
                state = ref.step_cycle(state, inputs)
        elapsed = time.perf_counter() - t0
        assert compared == 72 * (15 + 15) + 56 * (7 + 7)
        assert elapsed < 60.0


def test_criterion_05_cross_network_conservation(crc8, crc8_stimulus, crc8_golden):
    with criterion(5, "changed/unchanged totals identical across 10 random networks"):
        t0 = time.perf_counter()
        results = []
        for i in range(10):
            tree = generate_tree(crc8.ff_names(), 4, RandomShuffle(1000 + i))
            cfg = CampaignConfig(FaultKind.SET, 6, seed=55, shared_time_list=True)
            results.append(
                run_campaign(Simulator(crc8), crc8_stimulus, cfg, tree=tree, golden=crc8_golden)
            )
        elapsed = time.perf_counter() - t0
        assert len({r.totals.changed for r in results}) == 1
        assert len({r.totals.unchanged for r in results}) == 1
        assert len({r.totals.reached for r in results}) == 1
        failures = [r.totals.failures for r in results]
        assert all(0 <= f <= results[0].totals.injected for f in failures)
        assert elapsed < 300.0


def test_criterion_06_fit_combination():
    with criterion(6, "device failure-rate combination reference values"):
        assert combine_fit(1233, "0.27", "161.75").failure_rate == 53848
        assert combine_fit(127, "0.25", "59.17").failure_rate == 1878
        assert combine_fit(127, "0.52", "59.17").failure_rate == 3907


def test_criterion_07_overlap_formula():
    with criterion(7, "ranking overlap reference values"):
        base = [f"n{i}" for i in range(60)]
        high = base[:42] + [f"x{i}" for i in range(18)]
        low = base[:3] + [f"y{i}" for i in range(57)]
        assert overlap(base, high) == as_fraction("0.70") == Fraction(7, 10)
        assert overlap(base, low) == as_fraction("0.05") == Fraction(1, 20)


def test_criterion_08_byte_identical_bundles(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "POOL_MIN_PER_WORKER", 1)
    with criterion(8, "byte-identical bundles across reruns and worker counts"):
        def run(tag, workers):
            root = tmp_path / tag
            root.mkdir()
            for name in ("lfsr_counter.json", "lfsr_counter.stimulus.json"):
                shutil.copy(circuit_path("lfsr_counter").parent / name, root / name)
            monkeypatch.chdir(root)
            assert cli_main([
                "gen-cdn", "lfsr_counter.json", "--min-fanout", "3",
                "--grouping", "random", "--seed", "2", "--count", "2",
                "--out-dir", "cdns",
            ]) == 0
            assert cli_main([
                "campaign", "lfsr_counter.json", "lfsr_counter.stimulus.json",
                "--mode", "set",
                "--tree", "cdns/cdn_random_000.json",
                "--tree", "cdns/cdn_random_001.json",
                "--injections-per-target", "3", "--seed", "9",
                "--workers", str(workers), "--out-dir", "out",
            ]) == 0
            assert cli_main([
                "campaign", "lfsr_counter.json", "lfsr_counter.stimulus.json",
                "--mode", "seu", "--injections-per-target", "2", "--seed", "9",
                "--workers", str(workers), "--out-dir", "out_seu",
            ]) == 0
            return root

        roots = [run("a", 1), run("b", 1), run("c", 3)]
        files = sorted(
            p.relative_to(roots[0])
            for p in roots[0].rglob("*")
            if p.is_file() and p.suffix != ""
        )
        assert files, "the campaign wrote no files"
        for other in roots[1:]:
            assert sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file()) \
                == sorted(p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file())
            for rel in files:
                assert (other / rel).read_bytes() == (roots[0] / rel).read_bytes(), rel


def test_criterion_09_exhaustive_upsets_match_enumeration(crc8, crc8_stimulus, crc8_golden):
    with criterion(9, "exhaustive upset campaign equals brute-force enumeration; de-rating bounded"):
        # brute-force enumeration on the reference stepper: flip the stored
        # value by hand before the injection cycle's edge and diff the
        # monitor rows against the bundled golden trace. A step is a pure
        # function of state and inputs, so each replay starts from the
        # stepper's own state at the injection cycle, recorded once from reset.
        ref = Stepper(crc8)
        vectors, monitors = crc8_stimulus.input_vectors, crc8_stimulus.monitors
        first, last = crc8_stimulus.active_window
        starts = [ref.reset()]
        for inputs in vectors[:last]:
            starts.append(ref.step_cycle(starts[-1], inputs))
        oracle_failures = set()
        for ff in crc8.ff_names():
            for inject_cycle in range(first, last + 1):
                flipped = dict(starts[inject_cycle].ff_values)
                flipped[ff] ^= 1
                state = SimState(inject_cycle, flipped, {})
                for cycle in range(inject_cycle, crc8_stimulus.n_cycles):
                    state = ref.step_cycle(state, vectors[cycle])
                    if tuple(state.net_values[m] for m in monitors) != crc8_golden.rows[cycle]:
                        oracle_failures.add((ff, inject_cycle))
                        break

        specs = [
            FaultSpec(FaultKind.SEU, ff, cycle)
            for ff in crc8.ff_names()
            for cycle in range(first, last + 1)
        ]
        result = run_specs(Simulator(crc8), crc8_stimulus, specs, golden=crc8_golden)
        campaign_failures = {
            (record.target, record.cycle)
            for record in result.records
            if record.classification is Classification.FUNCTIONAL_FAILURE
        }
        assert campaign_failures == oracle_failures
        assert result.totals.injected == len(crc8.ff_names()) * (last - first + 1)

        # de-rating values are proper fractions
        campaign_fdr = fdr(result.totals.failures, result.totals.injected)
        assert 0 <= campaign_fdr <= 1
        for tally in result.per_target.values():
            assert 0 <= fdr(tally.failures, tally.injected) <= 1

        # a circuit whose flip-flops all recirculate can never be disturbed
        # by a clock transient: the de-rating must be exactly zero
        ffs = [FlipFlop(f"r{i}", f"r{i}_q", f"r{i}_q", None, i % 2) for i in range(8)]
        bank = Netlist.build("bank", [], ["r0_q"], [], ffs)
        bank_stim = Stimulus(6, tuple({} for _ in range(6)), (0, 5), ("r0_q",))
        bank_tree = generate_tree(bank.ff_names(), 2)
        bank_cfg = CampaignConfig(FaultKind.SET, 4, seed=1)
        bank_result = run_campaign(Simulator(bank), bank_stim, bank_cfg, tree=bank_tree)
        assert all(record.n_changed == 0 for record in bank_result.records)
        assert bank_result.totals.changed == 0
        assert bank_result.totals.failures == 0
        assert fdr(bank_result.totals.failures, bank_result.totals.injected) == 0
