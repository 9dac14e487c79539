"""Every mutated input document ends in exit 0, or in exit 2 with one error line.

The JSON documents (netlist, stimulus, clock tree, campaign result) are
mutated by replacing, deleting or duplicating one node; the CSV documents
(golden trace, FIT library) by a few character edits. The command that reads
the document must then either succeed or exit 2 with exactly one ``error:``
line and write nothing: never exit 1, never a traceback. CI runs this file
again with ``--hypothesis-profile=ci`` for more examples.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi.bundled import circuit_path, fit_library_path, golden_path, stimulus_path
from cdnfi.cli import main
from cdnfi.clocktree import generate_tree, save_tree
from cdnfi.netlist import load_netlist

JSON_DOCUMENTS = ("netlist", "stimulus", "tree", "result")
CSV_DOCUMENTS = ("golden", "fit")
# small values only: a mutated cycle count or fan-out must not make a run long
REPLACEMENTS = (None, True, False, 0, 1, 2, -1, 2.5, "", "x", "lfsr.0", "b0", [], {})
CSV_CHARACTERS = "01,.-x \n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The lfsr_counter documents, and a result of a two-buffer-stage SET campaign."""
    root = tmp_path_factory.mktemp("inputs")
    net = circuit_path("lfsr_counter")
    paths = {
        "netlist": root / "lfsr.json", "stimulus": root / "lfsr.stimulus.json",
        "golden": root / "golden.csv", "fit": root / "fit.csv", "tree": root / "cdn.json",
    }
    for name, source in (("netlist", net), ("stimulus", stimulus_path("lfsr_counter")),
                         ("golden", golden_path("lfsr_counter")), ("fit", fit_library_path())):
        shutil.copyfile(source, paths[name])
    save_tree(generate_tree(load_netlist(net).ff_names(), 3), paths["tree"])
    assert main(argv(paths, root / "first")) == 0
    paths["result"] = root / "first" / "result_cdn.json"
    return paths


def argv(paths, out_dir):
    """The command that reads the document in question."""
    if "result" in paths:
        return ["report", str(paths["result"]), "--fit-library", str(paths["fit"]),
                "--out-dir", str(out_dir)]
    return ["campaign", str(paths["netlist"]), str(paths["stimulus"]), "--mode", "set",
            "--tree", str(paths["tree"]), "--golden", str(paths["golden"]),
            "--fit-library", str(paths["fit"]), "--injections-per-target", "1",
            "--out-dir", str(out_dir)]


def nodes(doc, path=()):
    """The path of every node below the root of a JSON document."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def mutate_json(rng, text):
    doc = json.loads(text)
    *where, key = rng.choice(list(nodes(doc)))
    parent = doc
    for step in where:
        parent = parent[step]
    action = rng.choice(["replace", "delete", "duplicate"])
    if action == "replace":
        parent[key] = rng.choice(REPLACEMENTS)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        # a JSON object keeps one value per key; the copy lands on a sibling
        parent[rng.choice(sorted(parent))] = parent[key]
    return json.dumps(doc)


def mutate_csv(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at, new = rng.randrange(len(chars) + 1), rng.choice(CSV_CHARACTERS)
        edit = rng.choice(["insert", "delete", "replace"])
        if edit == "insert":
            chars.insert(at, new)
        elif at < len(chars):
            chars[at:at + 1] = [new] if edit == "replace" else []
    return "".join(chars)


@pytest.mark.parametrize("document", JSON_DOCUMENTS + CSV_DOCUMENTS)
@settings(derandomize=True, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_mutated_input_exits_0_or_2_with_one_error_line(inputs, document, rng):
    mutate = mutate_json if document in JSON_DOCUMENTS else mutate_csv
    text = mutate(rng, inputs[document].read_text())
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        mutated = work / inputs[document].name
        mutated.write_text(text)
        paths = {name: path for name, path in inputs.items() if document == "result" or name != "result"}
        paths[document] = mutated
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(argv(paths, work / "out"))
        err = stderr.getvalue().splitlines()
        assert rc in (0, 2), err
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert sorted(work.iterdir()) == [mutated]
