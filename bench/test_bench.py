"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from cdnfi import bundled, cli  # noqa: E402
from cdnfi.clocktree import ByName, generate_tree, tree_stats  # noqa: E402
from cdnfi.netlist import parse_netlist  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import synthcircuit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic():
    assert synthcircuit.synth_documents(5) == synthcircuit.synth_documents(5)
    assert synthcircuit.synth_documents(5) != synthcircuit.synth_documents(6)


def test_generated_circuit_validates_at_paper_scale():
    netlist_doc, _ = synthcircuit.synth_documents(0)
    netlist = parse_netlist(netlist_doc)  # raises unless it validates
    assert len(netlist.flipflops) == 1233
    assert len(netlist.gates) == 4000
    stats = tree_stats(generate_tree(netlist.ff_names(), 16, ByName()))
    assert (stats.buffer_count, stats.stages, stats.total_cone_size) == (127, 7, 8631)


def _small_bundle(out: Path) -> Path:
    net = bundled.circuit_path("crc8_pipeline")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-cdn", str(net), "--min-fanout", "4",
                         "--out-dir", str(out / "cdns")]) == 0
        assert cli.main([
            "campaign", str(net), str(bundled.stimulus_path("crc8_pipeline")),
            "--mode", "set", "--tree", str(out / "cdns" / "cdn_by_name.json"),
            "--injections-per-target", "2", "--seed", "1", "--out-dir", str(out / "bundle"),
        ]) == 0
    return out / "bundle"


def test_reference_check_catches_one_flipped_classification(tmp_path):
    bundle = _small_bundle(tmp_path)
    frozen = reference.fingerprint(bundle)
    assert reference.mismatches(reference.fingerprint(bundle), frozen) == []

    log = bundle / "log_cdn_by_name.csv"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",masked"))
    lines[row] = lines[row].replace(",masked", ",functional_failure")
    log.write_text("".join(lines), encoding="utf-8")
    assert reference.mismatches(reference.fingerprint(bundle), frozen) == [
        "log_cdn_by_name.csv: digest differs"]

    result = bundle / "result_cdn_by_name.json"
    doc = json.loads(result.read_text(encoding="utf-8"))
    doc["totals"]["failures"] += 1
    result.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    problems = reference.mismatches(reference.fingerprint(bundle), frozen)
    assert any(p.startswith("totals of cdn_by_name") for p in problems)


def test_manifest_is_not_fingerprinted(tmp_path):
    bundle = _small_bundle(tmp_path)
    frozen = reference.fingerprint(bundle)
    (bundle / "manifest.json").write_text("{}\n", encoding="utf-8")
    assert reference.mismatches(reference.fingerprint(bundle), frozen) == []


def test_reference_covers_every_workload_and_seed():
    doc = reference.load_reference()
    assert doc["reference_seeds"] == workloads.REFERENCE_SEEDS
    assert sorted(doc["workloads"]) == sorted(workloads.WORKLOADS)
    for entries in doc["workloads"].values():
        assert sorted(entries, key=int) == [str(s) for s in range(workloads.REFERENCE_SEEDS)]


def test_benchmark_json_names_every_workload_and_layer():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(layers)


def test_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: None)
    with tracer.span("root"):
        outer()
        outer()
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 5
    layers = tracing.summarize(tracer, "root")
    assert layers["outer"]["calls"] == 2 and layers["inner"]["calls"] == 2
    for name, layer in layers.items():
        assert 0 <= layer["self_s"] <= layer["total_s"], name
    nested = layers["outer"]["total_s"] - layers["outer"]["self_s"]
    assert abs(nested - layers["inner"]["total_s"]) < 1e-9


def test_tail_percentile_keeps_ten_samples_beyond():
    durations = [float(i) for i in range(127)]
    value, pct = run._tail(durations)
    assert pct == 92
    assert run._tail([1.0, 2.0]) == (2.0, 100)
    assert sum(d > value for d in durations) >= run.TAIL_SAMPLES
    assert run._tail([float(i) for i in range(5000)])[1] == 99


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crc8_set_trees", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_campaign_repetition_times_setup_and_counts_every_worker(tmp_path, monkeypatch):
    import rep

    spec = workloads.prepare("crc8_set_trees", 0, tmp_path)
    pools = []
    measure = rep._peak_rss_kb

    def listing(rss_dir):
        pools.extend(sorted(p.name.split("-")[0] for p in rss_dir.iterdir()))
        return measure(rss_dir)

    monkeypatch.setattr(rep, "_peak_rss_kb", listing)
    result = rep.run_campaign(spec, 2, str(tmp_path / "out"))
    assert result["rc"] == 0
    assert 0 < result["setup_s"] < result["run_campaign_s"] < result["wall_s"]
    # one pool per tree, each with two workers reporting their peak
    assert pools == ["1", "1", "2", "2"]
    assert not (tmp_path / "out.rss").exists()
