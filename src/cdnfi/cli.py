"""Command line interface.

Four subcommands cover the workflow: ``sim`` produces a golden trace,
``gen-cdn`` synthesizes virtual clock networks, ``campaign`` runs injection
campaigns and writes logs plus a report bundle, ``report`` rebuilds a bundle
from saved campaign results. Every command writes a run manifest with the
tool version, the argument echo, the seed, and digests of its inputs, so a
run can be reproduced and verified byte for byte.

Exit codes: 0 when all outputs were written, 2 for usage errors and missing
or malformed input files, 1 for everything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .campaign import (
    CampaignConfig,
    CampaignError,
    check_targets,
    log_to_csv,
    result_from_json,
    result_to_json,
    run_campaign,
)
from .clocktree import (
    ByName,
    ClockTreeError,
    RandomShuffle,
    generate_tree,
    load_tree,
    save_tree,
    tree_stats,
)
from .faults import FaultKind
from .netlist import NetlistError, load_netlist
from .report import FitLibrary, ReportError, emit, load_fit_library
from .seeding import PRNG_NAME, derive_seed
from .simulator import SimulationError, Simulator, load_stimulus, load_trace, save_trace


class UsageError(Exception):
    pass


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} file not found: {path}")
    return p


def _load(load, path: Path):
    """``load(path)``, with a file not UTF-8 or nested too deeply to parse a usage error."""
    try:
        return load(path)
    except UnicodeDecodeError as e:
        raise UsageError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from e
    except RecursionError as e:
        raise UsageError(f"{path} is nested too deeply to parse") from e


def _write_manifest(
    path: Path,
    command: str,
    config: dict,
    seed: Optional[int],
    inputs: Sequence[Path],
    outputs: Sequence[Path],
) -> None:
    doc = {
        "tool": "cdnfi",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "prng": PRNG_NAME,
        "inputs": [
            {"path": str(p), "sha256": _digest(p)} for p in sorted(inputs)
        ],
        "outputs": sorted(str(p) for p in outputs),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _fraction_arg(value: str) -> str:
    from .report import as_fraction

    try:
        inside = 0 < as_fraction(value) <= 1
    except ZeroDivisionError:
        inside = False
    if not inside:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdnfi",
        description="Fault injection for clock distribution networks",
    )
    parser.add_argument("--version", action="version", version=f"cdnfi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="run a stimulus and write the golden trace")
    p.add_argument("netlist")
    p.add_argument("stimulus")
    p.add_argument("--out", required=True, help="golden trace CSV path")

    p = sub.add_parser("gen-cdn", help="synthesize virtual clock networks")
    p.add_argument("netlist")
    p.add_argument("--min-fanout", type=_positive_int, required=True)
    p.add_argument("--grouping", choices=["by-name", "random"], default="by-name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1,
                   help="number of networks (random grouping only)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("campaign", help="run an injection campaign")
    p.add_argument("netlist")
    p.add_argument("stimulus")
    p.add_argument("--golden", help="golden trace CSV (computed if omitted)")
    p.add_argument("--mode", choices=["set", "seu"], required=True)
    p.add_argument("--tree", action="append", default=[],
                   help="clock tree file; repeat for multiple networks (set mode)")
    p.add_argument("--injections-per-target", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-target-times", action="store_true",
                   help="draw a fresh time list per target instead of sharing one")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--fit-library")
    p.add_argument("--top-fraction", type=_fraction_arg, default="0.05")
    p.add_argument("--format", choices=["csv", "text"], default="csv")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("report", help="rebuild a report bundle from campaign results")
    p.add_argument("results", nargs="+", help="campaign result JSON files")
    p.add_argument("--fit-library")
    p.add_argument("--top-fraction", type=_fraction_arg, default="0.05")
    p.add_argument("--format", choices=["csv", "text"], default="csv")
    p.add_argument("--out-dir", required=True)

    return parser


def _cmd_sim(args) -> int:
    netlist_path = _require_file(args.netlist, "netlist")
    stimulus_path = _require_file(args.stimulus, "stimulus")
    netlist = _load(load_netlist, netlist_path)
    stimulus = _load(load_stimulus, stimulus_path)
    trace = Simulator(netlist).run(stimulus)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trace(trace, out)
    manifest = out.with_name(out.name + ".manifest.json")
    _write_manifest(
        manifest, "sim",
        {"netlist": str(netlist_path), "stimulus": str(stimulus_path), "out": str(out)},
        None, [netlist_path, stimulus_path], [out],
    )
    print(f"wrote {out} ({stimulus.n_cycles} cycles, {len(stimulus.monitors)} monitors)")
    return 0


def _cmd_gen_cdn(args) -> int:
    netlist_path = _require_file(args.netlist, "netlist")
    netlist = _load(load_netlist, netlist_path)
    ffs = netlist.ff_names()
    if not ffs:
        raise UsageError(f"netlist '{netlist.name}' has no flip-flops")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.grouping == "by-name":
        if args.count > 1:
            print("note: by-name grouping is deterministic; writing a single network")
        named = [("cdn_by_name.json", ByName())]
    else:
        named = [
            (f"cdn_random_{i:03d}.json", RandomShuffle(derive_seed(args.seed, f"cdn/{i}")))
            for i in range(args.count)
        ]
    outputs = []
    for name, grouping in named:
        tree = generate_tree(ffs, args.min_fanout, grouping)
        path = out_dir / name
        save_tree(tree, path)
        outputs.append(path)
        stats = tree_stats(tree)
        print(
            f"{path.name}: stages={stats.stages} buffers={stats.buffer_count} "
            f"fanout={stats.min_leaf_fanout}..{stats.max_leaf_fanout}"
        )
    _write_manifest(
        out_dir / "manifest.json", "gen-cdn",
        {
            "netlist": str(netlist_path), "min_fanout": args.min_fanout,
            "grouping": args.grouping, "count": args.count,
        },
        args.seed, [netlist_path], outputs,
    )
    return 0


def _cmd_campaign(args) -> int:
    netlist_path = _require_file(args.netlist, "netlist")
    stimulus_path = _require_file(args.stimulus, "stimulus")
    mode = FaultKind(args.mode)
    if (mode is FaultKind.SET) != bool(args.tree):
        raise UsageError("set mode needs at least one --tree, and seu mode takes none")
    tree_paths = [_require_file(t, "clock tree") for t in args.tree]
    # a campaign's label, which its file names carry, is its tree file's stem
    labels = [p.stem for p in tree_paths]
    if len(set(labels)) < len(labels):
        raise UsageError(f"campaign labels {', '.join(labels)} are not distinct")
    input_files = [netlist_path, stimulus_path] + list(tree_paths)

    netlist = _load(load_netlist, netlist_path)
    sim = Simulator(netlist)
    stimulus = _load(load_stimulus, stimulus_path)
    # every input is loaded and checked, and every campaign run, before anything
    # is written; emit, the first writer, checks labels and FIT classes first
    trees = [_load(load_tree, p) for p in tree_paths]
    for tree in trees:
        check_targets(netlist, FaultKind.SET, (), tree)
    fit_library = None
    if args.fit_library:
        fit_path = _require_file(args.fit_library, "FIT library")
        fit_library = _load(load_fit_library, fit_path)
        input_files.append(fit_path)
    golden = None
    if args.golden:
        golden_path = _require_file(args.golden, "golden trace")
        golden = _load(load_trace, golden_path)
        input_files.append(golden_path)

    cfg = CampaignConfig(
        mode=mode,
        injections_per_target=args.injections_per_target,
        seed=args.seed,
        shared_time_list=not args.per_target_times,
    )

    # one campaign per tree in set mode, one treeless campaign in seu mode
    runs = list(zip(trees, labels)) or [(None, "seu")]
    results = [
        run_campaign(sim, stimulus, cfg, tree=tree, golden=golden, workers=args.workers, label=label)
        for tree, label in runs
    ]

    out_dir = Path(args.out_dir)
    outputs = emit(
        results, out_dir, fmt=args.format, fit_library=fit_library,
        top_fraction=args.top_fraction,
    )
    if not args.golden:
        golden_path = out_dir / "golden.csv"
        save_trace(results[0].golden, golden_path)
        outputs.append(golden_path)
    for result in results:
        log_path = out_dir / f"log_{result.label}.csv"
        log_path.write_text(log_to_csv(result), encoding="utf-8")
        outputs.append(log_path)
        result_path = out_dir / f"result_{result.label}.json"
        result_path.write_text(result_to_json(result), encoding="utf-8")
        outputs.append(result_path)
    _write_manifest(
        out_dir / "manifest.json", "campaign",
        {
            "netlist": str(netlist_path), "stimulus": str(stimulus_path),
            "golden": args.golden, "mode": args.mode,
            "trees": [str(p) for p in tree_paths],
            "injections_per_target": args.injections_per_target,
            "shared_time_list": not args.per_target_times,
            "fit_library": args.fit_library,
            "top_fraction": args.top_fraction, "format": args.format,
        },
        args.seed, input_files, outputs,
    )
    for result in results:
        t = result.totals
        print(
            f"{result.label}: injected={t.injected} reached={t.reached} "
            f"changed={t.changed} unchanged={t.unchanged} failures={t.failures}"
        )
    return 0


def _cmd_report(args) -> int:
    result_paths = [_require_file(r, "campaign result") for r in args.results]
    results = [_load(lambda p: result_from_json(p.read_text(encoding="utf-8")), p) for p in result_paths]
    fit_library: Optional[FitLibrary] = None
    input_files = list(result_paths)
    if args.fit_library:
        fit_path = _require_file(args.fit_library, "FIT library")
        fit_library = _load(load_fit_library, fit_path)
        input_files.append(fit_path)
    out_dir = Path(args.out_dir)
    outputs = emit(
        results, out_dir, fmt=args.format, fit_library=fit_library,
        top_fraction=args.top_fraction,
    )
    _write_manifest(
        out_dir / "manifest.json", "report",
        {
            "results": [str(p) for p in result_paths],
            "fit_library": args.fit_library,
            "top_fraction": args.top_fraction, "format": args.format,
        },
        None, input_files, outputs,
    )
    print(f"wrote report bundle to {out_dir} ({len(outputs)} files)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "gen-cdn":
            return _cmd_gen_cdn(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_report(args)
    except (
        UsageError, FileNotFoundError, NetlistError, SimulationError,
        ClockTreeError, CampaignError, ReportError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
