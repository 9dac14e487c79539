"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 bench/rep.py MODE SPEC_JSON WORKERS OUT_DIR [SPANS_OUT]

MODE is one of
  campaign         time one ``cdnfi campaign`` invocation, untraced
  traced-campaign  the same invocation with every layer traced

Each repetition is its own process, as a user's ``cdnfi`` run is, so no
kernel compiled by an earlier repetition is reused. The last line of
standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cdnfi import campaign, cli, faults, netlist, simulator  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# a later engine may drop the class; its spans are then reported as missing
_KERNEL = getattr(simulator, "Simulator", None)

# (module or class, attribute, span name); a name is patched in every module
# that looks it up
CAMPAIGN_SPANS = [
    (cli, "load_netlist", "netlist.load"),
    (netlist, "parse_netlist", "netlist.parse"),
    (netlist, "validate", "netlist.validate"),
    (simulator, "validate", "netlist.validate"),
    (simulator, "levelize", "netlist.levelize"),
    (_KERNEL, "__init__", "simulator.compile"),
    (_KERNEL, "run", "simulator.golden"),
    (_KERNEL, "step_cycle", "simulator.step_cycle"),
    (_KERNEL, "settle", "simulator.settle"),
    (cli, "simulator_for", "simulator.kernel_lookup"),
    (campaign, "simulator_for", "simulator.kernel_lookup"),
    (faults, "simulator_for", "simulator.kernel_lookup"),
    (cli, "load_stimulus", "simulator.load_stimulus"),
    (cli, "load_trace", "simulator.load_trace"),
    (cli, "save_trace", "simulator.save_trace"),
    (cli, "load_fit_library", "report.load_fit_library"),
    (cli, "load_tree", "clocktree.build"),
    (cli, "run_campaign", "campaign.run_campaign"),
    (campaign, "build_specs", "campaign.build_specs"),
    (campaign, "run_specs", "campaign.run_specs"),
    (campaign, "run_injection", "campaign.run_injection"),
    (campaign, "apply_set", "faults.apply_set"),
    (campaign, "apply_seu", "faults.apply_seu"),
    (cli, "log_to_csv", "campaign.log_csv"),
    (cli, "result_to_json", "campaign.result_json"),
    (cli, "emit", "report.emit"),
]

# pool workers find these in their environment, so they are inherited under
# any start method
_RSS_DIR_ENV = "CDNFI_BENCH_RSS_DIR"
_POOL_ENV = "CDNFI_BENCH_POOL"
_INIT_WORKER = campaign._init_worker


def _write_worker_rss() -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    name = f"{os.environ[_POOL_ENV]}-{os.getpid()}"
    Path(os.environ[_RSS_DIR_ENV], name).write_text(str(peak), encoding="utf-8")


def _init_worker_recording_rss(*args):
    """Pool initializer: the program's own, plus the peak RSS written at exit."""
    mp_util.Finalize(None, _write_worker_rss, exitpriority=0)
    return _INIT_WORKER(*args)


def _peak_rss_kb(rss_dir: Path) -> int:
    """Peak RSS of this process plus the largest sum over one pool's workers.

    Pools (one per ``run_specs`` call) run one after another, their workers
    side by side; each worker's RSS counts the pages it shares with this
    process, as ``ps`` would. The largest child is the floor of the sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pools: dict[str, int] = {}
    for path in rss_dir.iterdir():
        pool = path.name.split("-")[0]
        pools[pool] = pools.get(pool, 0) + int(path.read_text(encoding="utf-8"))
    return own + max([largest_child, *pools.values()])


def run_campaign(spec: dict, workers: int, out_dir: str, tracer=None) -> dict:
    """One ``cdnfi campaign`` call, with its set-up and campaign time taken.

    Set-up runs from the entry of ``cli.main`` to the first entry of
    ``run_specs``; campaign time is the time spent inside ``run_campaign``.
    """
    results = []
    inside = [0.0]
    run_specs_entries: list[float] = []
    saved = {(cli, "run_campaign"): cli.run_campaign,
             (cli, "CampaignConfig"): cli.CampaignConfig,
             (campaign, "run_specs"): campaign.run_specs,
             (campaign, "_init_worker"): _INIT_WORKER}

    def timed_run_campaign(*args, **kwargs):
        t = time.perf_counter()
        result = saved[(cli, "run_campaign")](*args, **kwargs)
        inside[0] += time.perf_counter() - t
        results.append(result)
        return result

    def timed_run_specs(*args, **kwargs):
        run_specs_entries.append(time.perf_counter())
        os.environ[_POOL_ENV] = str(len(run_specs_entries))
        return saved[(campaign, "run_specs")](*args, **kwargs)

    argv = workloads.campaign_argv(spec, workers, Path(out_dir))
    rss_dir = Path(f"{out_dir}.rss")
    rss_dir.mkdir(parents=True)
    os.environ[_RSS_DIR_ENV] = str(rss_dir)
    cli.run_campaign = timed_run_campaign
    campaign.run_specs = timed_run_specs
    campaign._init_worker = _init_worker_recording_rss
    if spec["targets"]:
        # the CLI has no target option; the subset reaches CampaignConfig here
        cli.CampaignConfig = functools.partial(saved[(cli, "CampaignConfig")],
                                               targets=tuple(spec["targets"]))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main", run_id=1):
                    rc = cli.main(argv)
            wall = time.perf_counter() - t0
        rss_kb = _peak_rss_kb(rss_dir)
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)
        shutil.rmtree(rss_dir, ignore_errors=True)
    if not run_specs_entries:
        raise RuntimeError("run_specs was never entered, so set-up has no end")
    totals = [r.totals for r in results]
    return {
        "rc": rc,
        "wall_s": wall,
        "setup_s": run_specs_entries[0] - t0,
        "run_campaign_s": inside[0],
        "injected": sum(t.injected for t in totals),
        "reached": sum(t.reached for t in totals),
        "changed": sum(t.changed for t in totals),
        "rss_kb": rss_kb,
    }


def _existing(table):
    """Split a patch table into names that exist and names that do not."""
    present, missing = [], []
    for owner, attr, name in table:
        found = owner is not None and hasattr(owner, attr)
        (present if found else missing).append((owner, attr, name))
    return present, sorted({name for _, _, name in missing})


def main(argv: list[str]) -> int:
    mode, spec_path, workers, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "campaign":
        out = run_campaign(spec, workers, out_dir)
    elif mode == "traced-campaign":
        present, missing = _existing(CAMPAIGN_SPANS)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, present):
            out = run_campaign(spec, workers, out_dir, tracer)
        out["layers"] = tracing.summarize(tracer, "cli.main",
                                          keep=("campaign.run_injection",))
        out["unpatched"] = missing
        out["spans"] = len(tracer)
        tracer.write(argv[4])
    else:
        raise SystemExit(f"unknown mode '{mode}'")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
