"""Write ``reference.json``: the frozen bundle fingerprint of every workload.

    python3 bench/freeze.py [WORKLOAD ...]

Runs one campaign per workload and reference seed with the engine in this
checkout and records its fingerprint (see ``reference.py``). Run it only
when the benchmark's workloads change, never to make a changed engine pass:
the point of the reference is that a faster engine reproduces it exactly.
Workloads not named keep their recorded entries.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import reference
import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    doc = (reference.load_reference() if reference.REFERENCE_PATH.exists()
           else {"reference_seeds": workloads.REFERENCE_SEEDS, "workloads": {}})
    for name in names or workloads.WORKLOADS:
        entries = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            work = run.ROOT / ".bench_work" / f"freeze-{name}-{seed}"
            try:
                spec = workloads.prepare(name, seed, work)
                out_dir = work / "out"
                result = run._child(
                    ["campaign", str(work / "spec.json"), str(spec["workers"]), str(out_dir)],
                    time.monotonic() + run.TIME_LIMIT_S,
                )
                if result["rc"] != 0:
                    raise SystemExit(f"{name} seed {seed}: campaign exited with {result['rc']}")
                entries[str(seed)] = reference.fingerprint(out_dir)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: {entries[str(seed)]['totals']}", flush=True)
        doc["workloads"][name] = entries
    reference.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
