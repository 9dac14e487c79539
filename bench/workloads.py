"""Workload inputs and the campaign command line.

Each workload is generated from the run's seed into a work directory; the
program only ever sees the generated files. The seed is reduced modulo
``REFERENCE_SEEDS`` so that every run has a frozen reference bundle to be
checked against (see ``reference.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from cdnfi import bundled, cli, clocktree

import synthcircuit

REFERENCE_SEEDS = 32

# BENCHMARK.json records why each workload exists. Each campaign is sized to
# take a couple of seconds, so a run holds many campaigns and their median
# is steady on a host whose speed drifts by tens of percent for seconds at a
# time; the paper's 170 injections per target would allow two per run.
WORKLOADS = ("crc8_set_trees", "synth_seu_shared", "synth_set_pertarget")
CRC8_TREES = 2
CRC8_MIN_FANOUT = 4
CRC8_PER_TARGET = 40
SEU_TARGETS = 6
SEU_PER_TARGET = 2
SET_MIN_FANOUT = 16
SET_PER_STAGE = 2
SET_PER_TARGET = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"cdnfi {' '.join(argv)} exited with {rc}")


def _write_synth(seed: int, work: Path) -> tuple[Path, Path]:
    netlist_doc, stimulus_doc = synthcircuit.synth_documents(seed)
    netlist_path = work / "synth.json"
    stimulus_path = work / "synth.stimulus.json"
    netlist_path.write_text(netlist_doc, encoding="utf-8")
    stimulus_path.write_text(stimulus_doc, encoding="utf-8")
    return netlist_path, stimulus_path


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Generate the inputs of one workload and return its campaign spec."""
    seed %= REFERENCE_SEEDS
    work.mkdir(parents=True, exist_ok=True)
    fit = str(bundled.fit_library_path())
    spec = {"workload": workload, "seed": seed,
            "fit": fit, "golden": None, "targets": None, "per_target_times": False}
    if workload == "crc8_set_trees":
        # the README example: bundled circuit, frozen golden trace, seeded
        # random trees, one campaign per tree
        net = str(bundled.circuit_path("crc8_pipeline"))
        _quiet_cli(["gen-cdn", net, "--min-fanout", str(CRC8_MIN_FANOUT),
                    "--grouping", "random", "--seed", str(seed),
                    "--count", str(CRC8_TREES), "--out-dir", str(work / "cdns")])
        spec.update(
            netlist=net,
            stimulus=str(bundled.stimulus_path("crc8_pipeline")),
            golden=str(bundled.golden_path("crc8_pipeline")),
            trees=[str(work / "cdns" / f"cdn_random_{i:03d}.json") for i in range(CRC8_TREES)],
            mode="set", injections_per_target=CRC8_PER_TARGET, workers=nproc(),
        )
    elif workload == "synth_seu_shared":
        net, stim = _write_synth(seed, work)
        ffs = synthcircuit.synth_netlist(seed).ff_names()
        targets = random.Random(f"cdnfi-bench/targets/{seed}").sample(ffs, SEU_TARGETS)
        spec.update(
            netlist=str(net), stimulus=str(stim), trees=[],
            targets=sorted(targets, key=ffs.index),
            mode="seu", injections_per_target=SEU_PER_TARGET, workers=1,
        )
    elif workload == "synth_set_pertarget":
        net, stim = _write_synth(seed, work)
        _quiet_cli(["gen-cdn", str(net), "--min-fanout", str(SET_MIN_FANOUT),
                    "--out-dir", str(work / "cdns")])
        tree_path = work / "cdns" / "cdn_by_name.json"
        # the root plus SET_PER_STAGE buffers of every other stage, so cones of
        # every size down to the leaves are injected
        rng = random.Random(f"cdnfi-bench/buffers/{seed}")
        buffers = clocktree.load_tree(tree_path).buffers
        targets = []
        for stage in range(1, max(b.stage for b in buffers) + 1):
            ids = [b.id for b in buffers if b.stage == stage]
            targets += sorted(rng.sample(ids, min(SET_PER_STAGE, len(ids))))
        spec.update(
            netlist=str(net), stimulus=str(stim), trees=[str(tree_path)],
            targets=targets,
            per_target_times=True,
            mode="set", injections_per_target=SET_PER_TARGET, workers=nproc(),
        )
    else:
        raise ValueError(f"unknown workload '{workload}'")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec


def campaign_argv(spec: dict, workers: int, out_dir: Path) -> list[str]:
    argv = ["campaign", spec["netlist"], spec["stimulus"], "--mode", spec["mode"]]
    if spec["golden"]:
        argv += ["--golden", spec["golden"]]
    for tree in spec["trees"]:
        argv += ["--tree", tree]
    if spec["per_target_times"]:
        argv.append("--per-target-times")
    argv += ["--injections-per-target", str(spec["injections_per_target"]),
             "--seed", str(spec["seed"]), "--fit-library", spec["fit"],
             "--workers", str(workers), "--out-dir", str(out_dir)]
    return argv

