"""cdnfi benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from the seed into
``.bench_work/``, and every repetition runs in a fresh interpreter
(``rep.py``). Every report bundle produced is checked against the frozen
reference for the workload and seed (``reference.json``).

``--trace 0`` measures the end-to-end metrics with tracing off: it runs
``cdnfi campaign`` repeatedly until the time is up. Per campaign, ``setup_s``
runs from the entry of ``cli.main`` to the first entry of ``run_specs``,
``wall_s`` is the whole ``cli.main`` call, ``injections_per_s`` divides the
injections by the time inside ``run_campaign``, and the peak RSS adds to the
campaign process's own the largest sum over the workers of one pool. The
times are medians over the campaigns, ``peak_rss_mb`` their maximum. ``--trace 1`` runs, three times each, an
untraced campaign at the workload's worker count, and untraced and traced
campaigns with one worker (so every span stays in one process), and reports
the per-layer metrics (see ``layers.json``). The last line of standard output is the result object;
the line before it records the environment, ungated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170
TRACE_REPS = 3
# at least this many samples must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run ``rep.py`` with ``args`` and return its result object."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "rep.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"rep.py {args[0]} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"rep.py {args[0]} exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        import workloads  # imports the package, so only once src/ is on the path

        self.deadline = deadline
        self.work = work
        self.spec = workloads.prepare(workload, seed, work)
        self.spec_path = str(work / "spec.json")
        frozen = (reference.load_reference()["workloads"].get(workload, {})
                  if reference.REFERENCE_PATH.exists() else {})
        self.expected = frozen.get(str(self.spec["seed"]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def campaign(self, workers: int, spans: Path | None = None) -> dict:
        """One campaign; its bundle is checked and then removed."""
        out_dir = self.work / f"out{self.attempted}"
        self.attempted += 1
        mode = "campaign" if spans is None else "traced-campaign"
        args = [mode, self.spec_path, str(workers), str(out_dir)]
        result = _child(args + ([str(spans)] if spans else []), self.deadline)
        problems = []
        if result["rc"] != 0:
            problems.append(f"cdnfi campaign exited with {result['rc']}")
        elif self.expected is None:
            problems.append("no frozen reference for this seed")
        else:
            problems = reference.mismatches(reference.fingerprint(out_dir), self.expected)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.problems += [f"campaign {self.attempted}: {p}" for p in problems]
        self.failed += bool(problems)
        return result


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Campaigns until ``seconds`` are used; medians over the campaigns."""
    start = time.monotonic()
    reps = []
    while True:
        t = time.monotonic()
        reps.append(runner.campaign(runner.spec["workers"]))
        now = time.monotonic()
        if now + (now - t) > start + seconds:
            break
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "injections_per_s": statistics.median(
            r["injected"] / r["run_campaign_s"] if r["run_campaign_s"] else 0.0 for r in reps),
        "peak_rss_mb": max(r["rss_kb"] for r in reps) / 1024,
    }
    return values, {"campaign_wall_s": [round(r["wall_s"], 4) for r in reps]}


def _tail(durations: list[float]) -> tuple[float, int]:
    """Highest percentile (at most 99) with TAIL_SAMPLES samples beyond it."""
    n = len(durations)
    if n <= TAIL_SAMPLES:
        return (max(durations) if durations else 0.0), 100
    pct = min(99, math.floor(100 * (n - TAIL_SAMPLES) / n))
    return sorted(durations)[max(0, math.ceil(pct / 100 * n) - 1)], pct


def _layer_values(traced: dict, serial_run_s: float, full_run_s: float,
                  gate_cycles: int, workers: int) -> dict:
    """Per-layer values of one traced campaign.

    ``serial_run_s`` and ``full_run_s`` are the times inside ``run_campaign``
    of untraced campaigns with one worker and with the workload's workers.
    """
    c = traced["layers"]

    def total(key):
        return c.get(key, {}).get("total_s", 0.0)

    def own(key):
        return c.get(key, {}).get("self_s", 0.0)

    def calls(key):
        return c.get(key, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "netlist.parse_s": own("netlist.load") + own("netlist.parse"),
        "netlist.validate_s": total("netlist.validate"),
        "netlist.levelize_s": total("netlist.levelize"),
        "simulator.compile_s": own("simulator.compile"),
        "simulator.golden_s": total("simulator.golden"),
        "simulator.gate_evals_per_s": ratio(gate_cycles, total("simulator.golden")),
        "simulator.kernel_lookup_s": own("simulator.kernel_lookup"),
        "simulator.kernel_lookup_calls": calls("simulator.kernel_lookup"),
        "simulator.step_cycle_self_s": own("simulator.step_cycle"),
        "simulator.settle_calls": calls("simulator.settle"),
        "simulator.cycles_per_injection": ratio(calls("simulator.step_cycle"),
                                                calls("campaign.run_injection")),
        "clocktree.build_s": total("clocktree.build"),
        "faults.apply_s": own("faults.apply_set") + own("faults.apply_seu"),
        "faults.reached_per_injection": ratio(traced["reached"], traced["injected"]),
        "faults.changed_frac": ratio(traced["changed"], traced["reached"]),
        "campaign.build_specs_s": total("campaign.build_specs"),
        "campaign.aggregate_s": own("campaign.run_specs"),
        "campaign.worker_busy_frac": ratio(serial_run_s, workers * full_run_s),
        "campaign.log_csv_s": total("campaign.log_csv"),
        "campaign.result_json_s": total("campaign.result_json"),
        "report.emit_s": total("report.emit"),
        "cli.other_s": own("cli.main"),
    }


def per_layer(runner: Runner, trace_dir: Path) -> tuple[dict, dict]:
    """Traced campaigns, TRACE_REPS times; medians per layer.

    Each traced campaign follows an untraced one of the same configuration,
    so host drift between them stays out of the tracing overhead.
    """
    spec = runner.spec
    name, workers = spec["workload"], spec["workers"]
    full, serial, traced = [], [], []
    for i in range(TRACE_REPS):
        if workers > 1:
            full.append(runner.campaign(workers))
        serial.append(runner.campaign(1))
        traced.append(runner.campaign(1, trace_dir / f"trace_{name}_campaign{i}.jsonl"))
    full = full or serial

    doc = json.loads(Path(spec["netlist"]).read_text(encoding="utf-8"))
    n_cycles = json.loads(Path(spec["stimulus"]).read_text(encoding="utf-8"))["n_cycles"]
    full_run_s = statistics.median(r["run_campaign_s"] for r in full)
    reps = [_layer_values(t, r["run_campaign_s"], full_run_s,
                          len(doc["gates"]) * n_cycles, workers)
            for t, r in zip(traced, serial)]
    values = {k: statistics.median(r[k] for r in reps) for k in reps[0]}

    injections = [d for t in traced
                  for d in t["layers"].get("campaign.run_injection", {}).get("durations", [])]
    tail, tail_pct = _tail(injections)
    values["campaign.injection_p50_ms"] = 1000 * statistics.median(injections) if injections else 0.0
    values["campaign.injection_tail_ms"] = 1000 * tail
    values["campaign.injection_tail_pct"] = tail_pct
    values["campaign.injection_samples"] = len(injections)
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - r["wall_s"] for t, r in zip(traced, serial))

    missing = set()
    for r in traced:
        missing.update(r["unpatched"])
    unmeasured = [f"{n}: not found in this version of the package" for n in sorted(missing)]
    if spec["golden"]:
        unmeasured += [f"{n}: the golden trace is loaded (--golden), so no golden run is simulated"
                       for n in ("simulator.golden_s", "simulator.gate_evals_per_s")]
    return values, {"unmeasured": unmeasured}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "cdnfi" / "__init__.py").is_file():
        print(f"error: no cdnfi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cdnfi
    import workloads

    if Path(cdnfi.__file__).resolve().parent != ROOT / "src" / "cdnfi":
        print(f"error: imported cdnfi from {cdnfi.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench_work = ROOT / ".bench_work"
    work = bench_work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        if args.trace:
            values, extra = per_layer(runner, bench_work)
        else:
            values, extra = end_to_end(runner, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = bench["per_layer" if args.trace else "end_to_end"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": runner.spec["seed"],
        "cores": workloads.nproc(),
        "workers": runner.spec["workers"],
        "python": platform.python_version(),
        "src_lines": _src_lines(),
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems,
        **extra,
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
