"""Frozen reference bundles and the check against them.

A campaign's report bundle is fingerprinted by the SHA-256 of every file
except ``manifest.json`` (it records absolute input paths, which differ
between checkouts) plus the exact totals of every ``result_<label>.json``.
``reference.json`` holds one fingerprint per workload and reference seed,
produced by ``freeze.py`` from the engine the benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
TOTAL_KEYS = ("injected", "reached", "changed", "unchanged", "failures")


def fingerprint(out_dir: Path) -> dict:
    files = {}
    totals = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name.startswith("result_") and path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            totals[doc["config"]["label"]] = {k: doc["totals"][k] for k in TOTAL_KEYS}
    return {"files": files, "totals": totals}


def mismatches(actual: dict, expected: dict) -> list[str]:
    """Human-readable differences between two fingerprints; empty if equal."""
    problems = []
    for name in sorted(set(actual["files"]) | set(expected["files"])):
        a, e = actual["files"].get(name), expected["files"].get(name)
        if a != e:
            problems.append(f"{name}: " + ("missing" if a is None else
                                           "unexpected" if e is None else "digest differs"))
    for label in sorted(set(actual["totals"]) | set(expected["totals"])):
        a, e = actual["totals"].get(label), expected["totals"].get(label)
        if a != e:
            problems.append(f"totals of {label}: got {a}, reference {e}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
