import functools
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cdnfi
from cdnfi import __version__, campaign, cli
from cdnfi import netlist as netlist_module
from cdnfi.bundled import circuit_path, fit_library_path, golden_path, stimulus_path
from cdnfi.cli import main
from cdnfi.clocktree import RandomShuffle, generate_tree, load_tree, save_tree, tree_stats
from cdnfi.netlist import FlipFlop, Gate, Netlist, load_netlist, save_netlist
from test_netlist import TOGGLE_DOC


TOGGLE_STIMULUS = json.dumps({
    "n_cycles": 4,
    "active_window": [0, 3],
    "monitors": ["q"],
    "vectors": {"0": {}},
}) + "\n"


def write_toggle(tmp_path):
    netlist = tmp_path / "toggle.json"
    netlist.write_text(TOGGLE_DOC)
    stimulus = tmp_path / "toggle.stimulus.json"
    stimulus.write_text(TOGGLE_STIMULUS)
    return netlist, stimulus


def recirculating_bank(n_ffs):
    """A netlist that is nothing but flip-flops feeding themselves."""
    ffs = [FlipFlop(f"r{i:04d}", f"q{i:04d}", f"q{i:04d}", None, 0) for i in range(n_ffs)]
    return Netlist.build("bank", [], ["q0000"], [], ffs)


def tree_of_files(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"cdnfi {__version__}"


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_sim_writes_trace_and_manifest(tmp_path, capsys):
    netlist, stimulus = write_toggle(tmp_path)
    out = tmp_path / "golden.csv"
    assert main(["sim", str(netlist), str(stimulus), "--out", str(out)]) == 0
    assert out.read_text() == "q\n1\n0\n1\n0\n"
    assert "wrote" in capsys.readouterr().out

    manifest = json.loads((tmp_path / "golden.csv.manifest.json").read_text())
    assert manifest["tool"] == "cdnfi"
    assert manifest["version"] == __version__
    assert manifest["command"] == "sim"
    assert manifest["outputs"] == [str(out)]
    by_path = {i["path"]: i["sha256"] for i in manifest["inputs"]}
    for p in (netlist, stimulus):
        assert by_path[str(p)] == hashlib.sha256(p.read_bytes()).hexdigest()


def test_sim_missing_input_exits_2(tmp_path, capsys):
    netlist, _ = write_toggle(tmp_path)
    out = tmp_path / "golden.csv"
    rc = main(["sim", str(netlist), str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_gen_cdn_by_name_reference_line(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    save_netlist(recirculating_bank(1233), bank)
    out_dir = tmp_path / "cdns"
    assert main([
        "gen-cdn", str(bank), "--min-fanout", "16", "--out-dir", str(out_dir),
    ]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "cdn_by_name.json: stages=7 buffers=127 fanout=19..20"
    tree = load_tree(out_dir / "cdn_by_name.json")
    assert tree_stats(tree).buffer_count == 127


def test_gen_cdn_by_name_ignores_count(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    save_netlist(recirculating_bank(9), bank)
    out_dir = tmp_path / "cdns"
    assert main([
        "gen-cdn", str(bank), "--min-fanout", "2", "--count", "3",
        "--out-dir", str(out_dir),
    ]) == 0
    assert "single network" in capsys.readouterr().out
    assert [p.name for p in sorted(out_dir.glob("cdn_*.json"))] == ["cdn_by_name.json"]


def test_gen_cdn_random_family(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    save_netlist(recirculating_bank(64), bank)
    out_dir = tmp_path / "cdns"
    assert main([
        "gen-cdn", str(bank), "--min-fanout", "4", "--grouping", "random",
        "--seed", "5", "--count", "3", "--out-dir", str(out_dir),
    ]) == 0
    files = sorted(out_dir.glob("cdn_random_*.json"))
    assert [p.name for p in files] == [
        "cdn_random_000.json", "cdn_random_001.json", "cdn_random_002.json",
    ]
    trees = [load_tree(p) for p in files]
    stats = {tree_stats(t) for t in trees}
    assert len(stats) == 1  # same topology...
    leaf_sets = {tuple(b.cone for b in t.leaves()) for t in trees}
    assert len(leaf_sets) == 3  # ...different memberships
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert len(manifest["outputs"]) == 3


def test_gen_cdn_random_is_reproducible(tmp_path):
    bank = tmp_path / "bank.json"
    save_netlist(recirculating_bank(32), bank)
    for d in ("one", "two"):
        assert main([
            "gen-cdn", str(bank), "--min-fanout", "2", "--grouping", "random",
            "--seed", "9", "--count", "2", "--out-dir", str(tmp_path / d),
        ]) == 0
    for name in ("cdn_random_000.json", "cdn_random_001.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_gen_cdn_rejects_bad_fanout(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    save_netlist(recirculating_bank(4), bank)
    rc = main(["gen-cdn", str(bank), "--min-fanout", "0", "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_campaign_seu_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--injections-per-target", "3", "--seed", "42",
        "--fit-library", str(fit_library_path()),
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {
        "golden.csv", "log_seu.csv", "result_seu.json", "totals.csv",
        "per_target_fdr.csv", "ranking_seu.csv", "rate_summary.csv",
        "summary.txt", "manifest.json",
    } <= names
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("seu: injected=42 reached=42 changed=42 unchanged=0")
    result = json.loads((out_dir / "result_seu.json").read_text())
    assert result["totals"]["injected"] == 42
    # the computed golden matches the bundled reference trace
    assert (out_dir / "golden.csv").read_bytes() == golden_path("lfsr_counter").read_bytes()


def test_campaign_set_requires_tree(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "set", "--out-dir", str(out_dir),
    ])
    assert rc == 2
    assert "--tree" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("tree_doc", [{"not": "a tree"}, None])
def test_campaign_seu_rejects_trees(tmp_path, capsys, tree_doc):
    net = circuit_path("lfsr_counter")
    tree_path = tmp_path / "cdn.json"
    if tree_doc is None:
        save_tree(generate_tree(load_netlist(net).ff_names(), 3), tree_path)
    else:
        tree_path.write_text(json.dumps(tree_doc))
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(net), str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--tree", str(tree_path), "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "--tree" in err[0]
    assert not out_dir.exists()


def test_campaign_multi_tree_conservation(tmp_path, capsys):
    cdn_dir = tmp_path / "cdns"
    assert main([
        "gen-cdn", str(circuit_path("lfsr_counter")), "--min-fanout", "3",
        "--grouping", "random", "--seed", "1", "--count", "2",
        "--out-dir", str(cdn_dir),
    ]) == 0
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--golden", str(golden_path("lfsr_counter")),
        "--mode", "set",
        "--tree", str(cdn_dir / "cdn_random_000.json"),
        "--tree", str(cdn_dir / "cdn_random_001.json"),
        "--injections-per-target", "4", "--seed", "7",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    results = [
        json.loads((out_dir / f"result_cdn_random_{i:03d}.json").read_text())
        for i in range(2)
    ]
    assert results[0]["totals"]["changed"] == results[1]["totals"]["changed"]
    assert results[0]["totals"]["unchanged"] == results[1]["totals"]["unchanged"]
    assert (out_dir / "overlap.csv").exists()
    assert (out_dir / "failure_spread.csv").exists()
    # explicit --golden is digested as an input, not rewritten as an output
    assert not (out_dir / "golden.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digested = {i["path"] for i in manifest["inputs"]}
    assert str(golden_path("lfsr_counter")) in digested


def test_campaign_levelizes_its_netlist_once(tmp_path, monkeypatch):
    # the cycle check at parse time and the kernel compile share one pass
    cdn_dir = tmp_path / "cdns"
    assert main([
        "gen-cdn", str(circuit_path("crc8_pipeline")), "--min-fanout", "4",
        "--out-dir", str(cdn_dir),
    ]) == 0
    calls = []
    real = netlist_module._gate_levels

    def counted(n):
        calls.append(n.name)
        return real(n)

    monkeypatch.setattr(netlist_module, "_gate_levels", counted)
    rc = main([
        "campaign", str(circuit_path("crc8_pipeline")), str(stimulus_path("crc8_pipeline")),
        "--mode", "set", "--tree", str(cdn_dir / "cdn_by_name.json"),
        "--injections-per-target", "2", "--seed", "5", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert calls == ["crc8_pipeline"]


def test_campaign_reruns_and_workers_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "POOL_MIN_PER_WORKER", 1)
    for sub, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        root = tmp_path / sub
        root.mkdir()
        for name in ("lfsr_counter.json", "lfsr_counter.stimulus.json"):
            shutil.copy(circuit_path("lfsr_counter").parent / name, root / name)
        monkeypatch.chdir(root)
        rc = main([
            "campaign", "lfsr_counter.json", "lfsr_counter.stimulus.json",
            "--mode", "seu", "--injections-per-target", "2", "--seed", "3",
            "--workers", workers, "--out-dir", "out",
        ])
        assert rc == 0
    baseline = tree_of_files(tmp_path / "a")
    assert tree_of_files(tmp_path / "b") == baseline
    assert tree_of_files(tmp_path / "c") == baseline
    for rel in baseline:
        data = (tmp_path / "a" / rel).read_bytes()
        assert (tmp_path / "b" / rel).read_bytes() == data, rel
        assert (tmp_path / "c" / rel).read_bytes() == data, rel


def test_report_rebuilds_bundle(tmp_path, capsys):
    # a two-tree transient campaign and an upset campaign, both with a FIT
    # library; the rebuilt bundle equals the campaign's file for file
    net = circuit_path("lfsr_counter")
    labels = ["cdn_a", "cdn_b"]
    tree_args = []
    for i, label in enumerate(labels):
        save_tree(generate_tree(load_netlist(net).ff_names(), 3, RandomShuffle(i)),
                  tmp_path / f"{label}.json")
        tree_args += ["--tree", str(tmp_path / f"{label}.json")]
    for mode, args, names in (("set", tree_args, labels), ("seu", [], ["seu"])):
        out_dir, rep_dir = tmp_path / f"camp_{mode}", tmp_path / f"rep_{mode}"
        assert main([
            "campaign", str(net), str(stimulus_path("lfsr_counter")),
            "--mode", mode, *args, "--injections-per-target", "2", "--seed", "11",
            "--fit-library", str(fit_library_path()), "--out-dir", str(out_dir),
        ]) == 0
        rc = main([
            "report", *(str(out_dir / f"result_{label}.json") for label in names),
            "--fit-library", str(fit_library_path()),
            "--out-dir", str(rep_dir),
        ])
        assert rc == 0
        assert "report bundle" in capsys.readouterr().out
        rebuilt = {p.name for p in rep_dir.iterdir()} - {"manifest.json"}
        expected = {"totals.csv", "per_target_fdr.csv", "rate_summary.csv", "summary.txt"}
        expected |= {f"ranking_{label}.csv" for label in names}
        if mode == "set":
            expected |= {"overlap.csv", "failure_spread.csv"}
        assert rebuilt == expected
        for name in rebuilt:
            assert (rep_dir / name).read_bytes() == (out_dir / name).read_bytes(), name


def seu_result_doc(tmp_path):
    out_dir = tmp_path / "camp"
    assert main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--injections-per-target", "1", "--seed", "11",
        "--out-dir", str(out_dir),
    ]) == 0
    return json.loads((out_dir / "result_seu.json").read_text())


def set_field(part, key, value):
    return lambda doc: doc[part][0].update({key: value})


def bump(doc, *path):
    *where, key = path
    entry = doc
    for step in where:
        entry = entry[step]
    entry[key] += 1


@pytest.mark.parametrize("tamper, message", [
    pytest.param(set_field("records", "n_changed", -1), "non-negative integer", id="negative-count"),
    pytest.param(set_field("records", "n_changed", 2), "n_changed <= n_reached",
                 id="changed-above-reached"),
    pytest.param(set_field("records", "n_reached", "1"), "non-negative integer", id="string-count"),
    pytest.param(set_field("records", "n_reached", True), "non-negative integer", id="bool-count"),
    pytest.param(set_field("records", "cycle", 1.0), "non-negative integer", id="float-cycle"),
    pytest.param(set_field("records", "kind", "glitch"), "not a valid FaultKind", id="unknown-kind"),
    pytest.param(set_field("records", "kind", "set"), "kind 'seu'", id="kind-not-the-mode"),
    pytest.param(set_field("records", "classification", "benign"), "not a valid Classification",
                 id="unknown-classification"),
    pytest.param(lambda doc: doc["totals"].update(reached=-5, failures=2),
                 "not the sum of per_target", id="tampered-totals"),
    pytest.param(lambda doc: bump(doc, "totals", "failures"), "not the sum of per_target",
                 id="totals-off-by-one"),
    pytest.param(lambda doc: (bump(doc, "per_target", 0, "failures"), bump(doc, "totals", "failures")),
                 "per_target disagrees with the tally of the records", id="per-target-not-records"),
    pytest.param(lambda doc: doc["per_target"].reverse(), "per_target disagrees",
                 id="per-target-reordered"),
    pytest.param(lambda doc: bump(doc, "per_ff", "lfsr.0", "times_upset"), "per_ff counts 15 changes",
                 id="per-ff-not-totals"),
    pytest.param(lambda doc: doc["per_ff"]["lfsr.0"].update(times_upset="1"), "non-negative integer",
                 id="per-ff-string-count"),
])
def test_report_rejects_inconsistent_results(tmp_path, capsys, tamper, message):
    doc = seu_result_doc(tmp_path)
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc, indent=2))
    capsys.readouterr()
    rep_dir = tmp_path / "rep"
    assert main(["report", str(path), "--out-dir", str(rep_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not rep_dir.exists()


def test_report_rejects_label_that_is_not_a_file_name(tmp_path, capsys):
    doc = seu_result_doc(tmp_path)
    doc["config"]["label"] = "x/../../escaped"
    path = tmp_path / "escaping.json"
    path.write_text(json.dumps(doc, indent=2))
    rep_dir = tmp_path / "rep"
    (rep_dir / "ranking_x").mkdir(parents=True)
    before = tree_of_files(tmp_path)
    capsys.readouterr()
    assert main(["report", str(path), "--out-dir", str(rep_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "not a plain file name" in err[0]
    assert tree_of_files(tmp_path) == before


def test_report_rejects_non_result_json(tmp_path, capsys):
    wrong = tmp_path / "manifest.json"
    wrong.write_text('{"command": "sim", "config": {"mode": "set"}}\n')
    rep_dir = tmp_path / "rep"
    assert main(["report", str(wrong), "--out-dir", str(rep_dir)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not a campaign result" in err
    assert not rep_dir.exists()


def test_report_rejects_bad_top_fraction(tmp_path):
    assert main([
        "report", "whatever.json", "--top-fraction", "1.5",
        "--out-dir", str(tmp_path),
    ]) == 2


def test_top_fraction_with_zero_denominator_is_a_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main([
        "report", "whatever.json", "--top-fraction", "1/0", "--out-dir", str(out_dir),
    ]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "cdnfi report: error: argument --top-fraction: must be in (0, 1], got 1/0"
    ]
    assert not out_dir.exists()


def test_campaign_rejects_non_numeric_fit_value(tmp_path, capsys):
    library = tmp_path / "fit.csv"
    library.write_text("cell_class,fit\nclock_buffer,59.17\nflipflop,abc\n")
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--injections-per-target", "1",
        "--fit-library", str(library), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "'flipflop', 'abc'" in err[0]


@pytest.mark.parametrize("command", ["campaign", "report"])
@pytest.mark.parametrize("mode, problem, message", [
    ("seu", "fit", "FIT library has no cell class 'flipflop'"),
    ("set", "fit", "FIT library has no cell class 'clock_buffer'"),
    ("set", "labels", "campaign labels cdn_by_name, cdn_by_name are not distinct"),
], ids=["seu-fit-class-missing", "set-fit-class-missing", "label-twice"])
def test_nothing_is_written_when_the_report_cannot_be_made(tmp_path, capsys, command, mode, problem,
                                                           message):
    net = circuit_path("lfsr_counter")
    trees = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        save_tree(generate_tree(load_netlist(net).ff_names(), 3), tmp_path / sub / "cdn_by_name.json")
        trees += ["--tree", str(tmp_path / sub / "cdn_by_name.json")]
    library = tmp_path / "fit.csv"
    library.write_text("cell_class,fit\n" + ("clock_buffer,1\n" if mode == "seu" else "flipflop,1\n"))
    fit = ["--fit-library", str(library)] if problem == "fit" else []

    def campaign(out_dir, *options):
        return main(["campaign", str(net), str(stimulus_path("lfsr_counter")), "--mode", mode,
                     "--injections-per-target", "1", *options, "--out-dir", str(out_dir)])

    one_tree = [] if mode == "seu" else trees[:2]
    out_dir = tmp_path / "out"
    if command == "campaign":
        run = functools.partial(campaign, out_dir, *(trees if problem == "labels" else one_tree), *fit)
    else:
        assert campaign(tmp_path / "first", *one_tree) == 0
        result = tmp_path / "first" / ("result_seu.json" if mode == "seu" else "result_cdn_by_name.json")
        twice = [str(result)] if problem == "labels" else []
        run = functools.partial(main, ["report", str(result), *twice, *fit, "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert run() == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not out_dir.exists()


def test_label_clash_is_found_before_any_campaign(tmp_path, capsys, monkeypatch):
    net = circuit_path("lfsr_counter")
    trees = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        save_tree(generate_tree(load_netlist(net).ff_names(), 3), tmp_path / sub / "cdn.json")
        trees += ["--tree", str(tmp_path / sub / "cdn.json")]

    def must_not_run(*args, **kwargs):
        raise AssertionError("a label clash must be found before the golden run")

    monkeypatch.setattr(cli, "run_campaign", must_not_run)
    out_dir = tmp_path / "out"
    rc = main(["campaign", str(net), str(stimulus_path("lfsr_counter")), "--mode", "set", *trees,
               "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["error: campaign labels cdn, cdn are not distinct"]
    assert not out_dir.exists()


@pytest.mark.parametrize("option, text, message", [
    ("--fit-library", "cell_class,fit\nflipflop,abc\n", "'flipflop', 'abc'"),
    ("--golden", "q\n2\n", "non-binary"),
    ("--golden", "q\n1\n", "golden trace does not match the stimulus"),
], ids=["fit-library", "golden", "golden-shape"])
def test_campaign_loads_every_input_before_writing(tmp_path, capsys, option, text, message):
    bad = tmp_path / "bad_input"
    bad.write_text(text)
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--injections-per-target", "1",
        option, str(bad), "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not out_dir.exists()


def test_campaign_checks_netlist_and_stimulus_once(tmp_path, monkeypatch):
    # the netlist is validated when parsed, and the stimulus by the campaign's
    # fault-free pass, never per injection
    from cdnfi import campaign, netlist, simulator

    calls = {"validate": 0, "validate_stimulus": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, original in (("validate", netlist.validate),
                           ("validate_stimulus", simulator.validate_stimulus)):
        for module in (netlist, simulator, campaign):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--mode", "seu", "--injections-per-target", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    injected = json.loads((tmp_path / "out" / "result_seu.json").read_text())["totals"]["injected"]
    assert injected > 1
    assert calls["validate"] == 1
    assert calls["validate_stimulus"] == 1


@pytest.mark.parametrize("golden", [False, True], ids=["computed", "supplied"])
def test_campaign_simulates_once_per_campaign_inside_run_specs(tmp_path, monkeypatch, golden):
    from cdnfi import campaign, simulator

    passes = []
    at_entry = []
    run, run_specs = simulator.Simulator.run, campaign.run_specs

    def counted_run(self, *args, **kwargs):
        passes.append(self)
        return run(self, *args, **kwargs)

    def entered(*args, **kwargs):
        at_entry.append(len(passes))
        return run_specs(*args, **kwargs)

    monkeypatch.setattr(simulator.Simulator, "run", counted_run)
    monkeypatch.setattr(campaign, "run_specs", entered)
    ffs = load_netlist(circuit_path("lfsr_counter")).ff_names()
    trees = []
    for seed in (1, 2):
        trees += ["--tree", str(tmp_path / f"cdn{seed}.json")]
        save_tree(generate_tree(ffs, 3, RandomShuffle(seed)), trees[-1])
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")), str(stimulus_path("lfsr_counter")),
        *(["--golden", str(golden_path("lfsr_counter"))] if golden else []),
        "--mode", "set", *trees, "--injections-per-target", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 0
    # one fault-free pass per campaign, none before the first campaign starts
    assert at_entry == [0, 1]
    assert len(passes) == 2
    assert (tmp_path / "out" / "golden.csv").exists() is not golden


def test_campaign_rejects_golden_that_differs_from_the_run(tmp_path, capsys):
    lines = golden_path("lfsr_counter").read_text().splitlines()
    cells = lines[6].split(",")  # cycle 5, after the header line
    cells[0] = str(1 - int(cells[0]))
    lines[6] = ",".join(cells)
    stale = tmp_path / "stale.csv"
    stale.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")), str(stimulus_path("lfsr_counter")),
        "--golden", str(stale), "--mode", "seu", "--injections-per-target", "1",
        "--out-dir", str(out_dir),
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: golden trace differs from the simulated run at cycle 5"
    ]
    assert not out_dir.exists()


def test_campaign_rejects_tree_naming_unknown_flipflops(tmp_path, capsys):
    tree_path = tmp_path / "foreign.json"
    save_tree(generate_tree([f"x{i}" for i in range(4)], 2), tree_path)
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(circuit_path("lfsr_counter")),
        str(stimulus_path("lfsr_counter")),
        "--golden", str(golden_path("lfsr_counter")),
        "--mode", "set", "--tree", str(tree_path),
        "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "'x0'" in err[0]
    assert not (out_dir / "log_foreign.csv").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(inputs=[1, "a"]), "'inputs' must be a list of port names"),
    (lambda doc: doc.update(outputs=["q", None]), "'outputs' must be a list of port names"),
    (lambda doc: doc["gates"][0].update(id=["g"]), "gate entry 0: 'id' must be a string"),
    (lambda doc: doc["gates"][0].update(kind=7), "gate entry 0: 'kind' must be a string"),
    (lambda doc: doc["ffs"][0].update(name=1), "ff entry 0: 'name' must be a string"),
    (lambda doc: doc["ffs"][0].update(d=["d"]), "ff entry 0: 'd' must be a string"),
    (lambda doc: doc["ffs"][0].update(q={}), "ff entry 0: 'q' must be a string"),
    (lambda doc: doc["ffs"][0].update(en=0), "ff entry 0: 'en' must be a string"),
])
def test_gen_cdn_rejects_non_string_names(tmp_path, capsys, mutate, message):
    doc = json.loads(TOGGLE_DOC)
    mutate(doc)
    netlist = tmp_path / "bad.json"
    netlist.write_text(json.dumps(doc))
    rc = main([
        "gen-cdn", str(netlist), "--min-fanout", "2", "--out-dir", str(tmp_path / "cdns"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_campaign_rejects_string_cone(tmp_path, capsys):
    netlist, stimulus = write_toggle(tmp_path)
    tree_path = tmp_path / "cdn.json"
    save_tree(generate_tree(["t"], 2), tree_path)
    doc = json.loads(tree_path.read_text())
    doc["buffers"][0]["cone"] = "t"
    tree_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(netlist), str(stimulus), "--mode", "set",
        "--tree", str(tree_path), "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "'cone' must be a list" in err[0]
    assert not (out_dir / "log_cdn.csv").exists()


@pytest.mark.parametrize("bit", [True, 1.0])
def test_sim_rejects_non_integer_input_bit(tmp_path, capsys, bit):
    netlist = tmp_path / "wire.json"
    save_netlist(Netlist.build("wire", ["a"], ["y"], [Gate("g", "BUF", ("a",), "y")], []), netlist)
    stimulus = tmp_path / "wire.stimulus.json"
    stimulus.write_text(json.dumps({
        "n_cycles": 2, "active_window": [0, 1], "monitors": ["y"],
        "vectors": {"0": {"a": bit}, "1": {"a": 0}},
    }))
    out = tmp_path / "golden.csv"
    rc = main(["sim", str(netlist), str(stimulus), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and f"'a' value {bit!r} is not a bit" in err[0]
    assert not out.exists()


def test_sim_rejects_boolean_init(tmp_path, capsys):
    doc = json.loads(TOGGLE_DOC)
    doc["ffs"][0]["init"] = True
    netlist, stimulus = write_toggle(tmp_path)
    netlist.write_text(json.dumps(doc))
    out = tmp_path / "golden.csv"
    rc = main(["sim", str(netlist), str(stimulus), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "init value True is not 0 or 1" in err[0]
    assert not out.exists()


def string_cone(path):
    doc = json.loads(path.read_text())
    doc["buffers"][0]["cone"] = "lfsr.0"
    path.write_text(json.dumps(doc))


def cone_naming_nobody(path):
    doc = json.loads(path.read_text())
    doc["buffers"][-1]["cone"].append("nobody")
    path.write_text(json.dumps(doc))


def numeric_id(path):
    doc = json.loads(path.read_text())
    doc["buffers"][-1]["id"] = 5
    path.write_text(json.dumps(doc))


def overlapping_leaves(path):
    # lfsr.0 hangs under both leaves of stage 2
    doc = json.loads(path.read_text())
    doc["stages"], doc["buffers"] = 2, [
        {"id": "r", "stage": 1, "parent": None, "cone": ["lfsr.0", "lfsr.1"]},
        {"id": "b0", "stage": 2, "parent": "r", "cone": ["lfsr.0", "lfsr.1"]},
        {"id": "b1", "stage": 2, "parent": "r", "cone": ["lfsr.0"]},
    ]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("corrupt, message", [
    (string_cone, "'cone' must be a list"),
    (cone_naming_nobody, "'nobody'"),
    (numeric_id, "buffer id 5 must be a string"),
    (overlapping_leaves, "buffers 'b0' and 'b1' share 'lfsr.0'"),
])
def test_campaign_checks_every_tree_before_running(tmp_path, capsys, corrupt, message):
    net = circuit_path("lfsr_counter")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_tree(generate_tree(load_netlist(net).ff_names(), 3), good)
    save_tree(generate_tree(load_netlist(net).ff_names(), 3), bad)
    corrupt(bad)
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(net), str(stimulus_path("lfsr_counter")),
        "--mode", "set", "--tree", str(good), "--tree", str(bad),
        "--injections-per-target", "1", "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not out_dir.exists()


def document(base, drop=None, **changes):
    doc = {k: v for k, v in json.loads(base).items() if k != drop}
    return json.dumps({**doc, **changes})


TOGGLE_TREE = {"min_fanout": 1, "grouping": {"mode": "by_name"}, "stages": 1}
TOGGLE_BUFFER = {"id": "b", "stage": 1, "parent": None, "cone": ["t"]}
TOGGLE_CHILD = {"id": "b0", "stage": 2, "parent": "b", "cone": ["t"]}


def toggle_tree(*children, stages=2):
    """A tree document over the toggle's one flip-flop: the root ``b``, then ``children``."""
    return json.dumps({**TOGGLE_TREE, "stages": stages, "buffers": [TOGGLE_BUFFER, *children]})


GATE = {"id": "inv", "kind": "NOT", "in": ["q"], "out": "d"}


# (input replaced, its text, the problem the error line must name)
MALFORMED = [
    ("stimulus", "{", "syntax error"),
    ("stimulus", "[]", "stimulus root must be an object"),
    ("stimulus", document(TOGGLE_STIMULUS, drop="monitors"), "missing required field 'monitors'"),
    ("stimulus", document(TOGGLE_STIMULUS, n_cycles=0), "'n_cycles' must be a positive integer"),
    ("stimulus", document(TOGGLE_STIMULUS, n_cycles=True), "'n_cycles' must be a positive integer"),
    ("stimulus", document(TOGGLE_STIMULUS, active_window=[0]), "'active_window' must be [first, last]"),
    ("stimulus", document(TOGGLE_STIMULUS, active_window=[0, True]),
     "'active_window' must be [first, last]"),
    ("stimulus", document(TOGGLE_STIMULUS, monitors="q"), "'monitors' must be a list of output names"),
    ("stimulus", document(TOGGLE_STIMULUS, vectors=[]), "'vectors' must map cycle numbers"),
    ("stimulus", document(TOGGLE_STIMULUS, vectors={"x": {}}), "vector key 'x' is not a cycle number"),
    ("stimulus", document(TOGGLE_STIMULUS, vectors={"0": {}, "9": {}}), "vector cycle 9 outside 0..3"),
    ("stimulus", document(TOGGLE_STIMULUS, vectors={"0": 1}), "vector for cycle 0 must be an object"),
    ("netlist", "[]", "document root must be an object"),
    ("netlist", document(TOGGLE_DOC, name=1), "'name' must be a string"),
    ("netlist", document(TOGGLE_DOC, gates={}), "'gates' must be a list"),
    ("netlist", document(TOGGLE_DOC, gates=["inv"]), "gate entry 0 must be an object"),
    ("netlist", document(TOGGLE_DOC, ffs=[None]), "ff entry 0 must be an object"),
    ("netlist", document(TOGGLE_DOC, gates=[{k: v for k, v in GATE.items() if k != "out"}]),
     "gate entry 0 missing field 'out'"),
    ("netlist", document(TOGGLE_DOC, ffs=[{"name": "t", "d": "d", "q": "q"}]),
     "ff entry 0 missing field 'init'"),
    ("netlist", document(TOGGLE_DOC, gates=[{**GATE, "in": "q"}]),
     "gate 'inv': 'in' must be a list of net names"),
    ("netlist", document(TOGGLE_DOC, gates=[{**GATE, "out": 3}]), "gate 'inv': 'out' must be a net name"),
    ("golden", "", "trace file is empty"),
    ("golden", "q\n0,1\n", "trace row 0 has 2 columns, expected 1"),
    ("tree", json.dumps({**TOGGLE_TREE, "buffers": []}), "lists no buffers"),
    ("tree", json.dumps({**TOGGLE_TREE, "buffers": [TOGGLE_BUFFER, TOGGLE_BUFFER]}),
     "duplicate buffer ids"),
    ("tree", json.dumps({**TOGGLE_TREE, "buffers": [{**TOGGLE_BUFFER, "cone": ["t", "t"]}]}),
     "cone of buffer 'b' names flip-flop 't' more than once"),
    ("tree", toggle_tree(TOGGLE_CHILD, {**TOGGLE_CHILD, "id": "b1"}), "buffers 'b0' and 'b1' share 't'"),
    ("tree", toggle_tree({**TOGGLE_CHILD, "cone": []}), "no buffer at stage 2 clocks flip-flop 't'"),
    ("tree", toggle_tree({**TOGGLE_CHILD, "parent": "ghost"}),
     "buffer 'b0' is not one stage below a listed parent 'ghost'"),
    ("tree", toggle_tree({**TOGGLE_CHILD, "stage": "two"}), "buffer 'b0' is not one stage below"),
    ("tree", toggle_tree({**TOGGLE_CHILD, "stage": 2.5}), "is not one stage below a listed parent 'b'"),
    ("tree", toggle_tree(TOGGLE_CHILD, stages="many"), "clock tree 'stages' must be an integer >= 1, got 'many'"),
    ("tree", toggle_tree(stages=0), "clock tree 'stages' must be an integer >= 1, got 0"),
    ("tree", toggle_tree(stages=2), "do not fill stages 1 to 2"),
]


# rows whose expected message was made more precise keep the test id their
# earlier message gave them, so a test's history stays under one name
MALFORMED_IDS = {
    "clock tree 'stages' must be an integer >= 1, got 'many'": "malformed clock tree document",
    "clock tree 'stages' must be an integer >= 1, got 0": "do not fill stages 1 to 0",
}


@pytest.mark.parametrize("input_kind, text, message", MALFORMED, ids=[
    f"{kind}-{MALFORMED_IDS.get(message, message)}" for kind, _, message in MALFORMED
])
def test_campaign_rejects_malformed_document(tmp_path, capsys, input_kind, text, message):
    netlist, stimulus = write_toggle(tmp_path)
    bad = tmp_path / "bad_input"
    bad.write_text(text)
    inputs = {"netlist": netlist, "stimulus": stimulus, input_kind: bad}
    options = {
        "golden": ["--mode", "seu", "--golden", str(bad)],
        "tree": ["--mode", "set", "--tree", str(bad)],
    }.get(input_kind, ["--mode", "seu"])
    out_dir = tmp_path / "out"
    rc = main([
        "campaign", str(inputs["netlist"]), str(inputs["stimulus"]),
        *options, "--out-dir", str(out_dir),
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not out_dir.exists()


READ_INPUTS = [
    ("sim", "netlist"), ("sim", "stimulus"), ("gen-cdn", "netlist"),
    ("campaign", "netlist"), ("campaign", "stimulus"), ("campaign", "golden"),
    ("campaign", "tree"), ("campaign", "fit-library"),
    ("report", "result"), ("report", "fit-library"),
]
NOT_UTF8 = (b"\xff{", "is not UTF-8 text (invalid start byte at byte 0)")
# deeper than the JSON decoder's recursion limit; golden traces and FIT
# libraries are CSV
TOO_DEEP = (b"[" * 200_000 + b"]" * 200_000, "is nested too deeply to parse")
UNREADABLE = [(command, replaced, NOT_UTF8) for command, replaced in READ_INPUTS] + [
    (command, replaced, TOO_DEEP) for command, replaced in READ_INPUTS
    if replaced not in ("golden", "fit-library")
]


@pytest.mark.parametrize("command, replaced, bad_input", UNREADABLE, ids=[
    f"{command}-{replaced}" + ("-nested-too-deeply" if bad_input is TOO_DEEP else "")
    for command, replaced, bad_input in UNREADABLE
])
def test_input_that_is_not_utf8_is_rejected(tmp_path, capsys, command, replaced, bad_input):
    content, problem = bad_input
    netlist, stimulus = write_toggle(tmp_path)
    assert main(["campaign", str(netlist), str(stimulus), "--mode", "seu",
                 "--out-dir", str(tmp_path / "first")]) == 0
    bad = tmp_path / "bad_input"
    bad.write_bytes(content)
    inputs = {
        "netlist": netlist, "stimulus": stimulus, "golden": None, "tree": None,
        "fit-library": fit_library_path(), "result": tmp_path / "first" / "result_seu.json",
        replaced: bad,
    }
    out = tmp_path / "out"
    argv = {
        "sim": ["sim", inputs["netlist"], inputs["stimulus"], "--out", out / "golden.csv"],
        "gen-cdn": ["gen-cdn", inputs["netlist"], "--min-fanout", "1", "--out-dir", out],
        "campaign": ["campaign", inputs["netlist"], inputs["stimulus"], "--out-dir", out,
                     *(["--mode", "set", "--tree", bad] if replaced == "tree" else ["--mode", "seu"]),
                     *(["--golden", bad] if replaced == "golden" else []),
                     "--fit-library", inputs["fit-library"]],
        "report": ["report", inputs["result"], "--fit-library", inputs["fit-library"],
                   "--out-dir", out],
    }[command]
    capsys.readouterr()
    before = tree_of_files(tmp_path)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad} {problem}"]
    assert tree_of_files(tmp_path) == before


REPO = Path(__file__).resolve().parent.parent


def declared_entry_point(name):
    """The ``[project.scripts]`` entry ``name`` of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")


def write_launcher(bin_dir, entry_point):
    """Write the launcher an installer generates for a console-script entry point."""
    bin_dir.mkdir(parents=True)
    launcher = bin_dir / entry_point.name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry_point.module} import {entry_point.attr.split('.')[0]}\n"
        f"sys.exit({entry_point.attr}())\n"
    )
    launcher.chmod(0o755)


def test_console_script_is_installed(tmp_path):
    # Runs the `cdnfi` command that pyproject.toml declares, through the
    # launcher an install would put on PATH, against the imported package.
    write_launcher(tmp_path / "bin", declared_entry_point("cdnfi"))
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(tmp_path / "bin"), os.environ.get("PATH", "")]),
        PYTHONPATH=str(Path(cdnfi.__file__).resolve().parent.parent),
    )

    def run(*args):
        return subprocess.run(
            ["cdnfi", *args], capture_output=True, text=True, timeout=60,
            env=env, cwd=tmp_path,
        )

    proc = run("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"cdnfi {__version__}"
    # main's return code is the process exit status.
    assert run().returncode == 2


def build_backend_available():
    """Whether pip can build this project offline without build isolation:
    setuptools>=68, as pyproject.toml requires, with a ``bdist_wheel`` command,
    which setuptools has itself from 70.1 and takes from ``wheel`` before."""
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return False
    setuptools = tuple(int(part) for part in re.findall(r"\d+", version)[:2])
    return setuptools >= (68,) and (
        setuptools >= (70, 1) or importlib.util.find_spec("wheel") is not None
    )


@pytest.mark.skipif(
    not build_backend_available(),
    reason="building offline needs setuptools>=68 and bdist_wheel "
           "(setuptools>=70.1, or wheel installed)",
)
def test_installed_console_script_runs_outside_the_source_tree(tmp_path):
    # pip builds in the source tree; a copy keeps build/ and *.egg-info out of it.
    source = tmp_path / "source"
    shutil.copytree(REPO / "src", source / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy2(REPO / "pyproject.toml", source)
    prefix = tmp_path / "prefix"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-deps", "--no-index",
         "--no-build-isolation", "--prefix", str(prefix), str(source)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (site,) = {p.parent.parent.resolve() for p in prefix.rglob("cdnfi/__init__.py")}
    env["PYTHONPATH"] = str(site)

    proc = subprocess.run(
        [str(prefix / "bin" / "cdnfi"), "--version"],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"cdnfi {__version__}"

    # The bundled circuits are package data, which --version never reads.
    proc = subprocess.run(
        [sys.executable, "-c",
         "from cdnfi.bundled import circuit_path; print(circuit_path('crc8_pipeline'))"],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    installed = Path(proc.stdout.strip())
    assert installed.is_relative_to(site) and installed.is_file()
