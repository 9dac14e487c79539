import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnfi.clocktree import (
    ByName,
    ClockBuffer,
    ClockTree,
    ClockTreeError,
    RandomShuffle,
    UnknownBufferError,
    generate_tree,
    parse_tree,
    serialize_tree,
    tree_stats,
)


def names(n):
    return [f"ff{i:04d}" for i in range(n)]


def halving_sizes(n, f):
    """Arithmetic oracle for the stage-by-stage cone sizes.

    Repeatedly replace every size m with ceil(m/2), floor(m/2) while the
    smallest size at the stage can still be halved without dropping below f.
    """
    stages = [[n]]
    while min(stages[-1]) // 2 >= f:
        stages.append([half for m in stages[-1] for half in ((m + 1) // 2, m // 2)])
    return stages


def test_large_reference_topology():
    tree = generate_tree(names(1233), 16)
    stats = tree_stats(tree)
    assert stats.stages == 7
    assert stats.buffer_count == 127
    assert stats.per_stage_counts == (1, 2, 4, 8, 16, 32, 64)
    assert (stats.min_leaf_fanout, stats.max_leaf_fanout) == (19, 20)
    assert stats.total_cone_size == 7 * 1233


def test_small_reference_topology():
    tree = generate_tree(names(9), 2)
    stats = tree_stats(tree)
    assert stats.stages == 3
    assert stats.buffer_count == 7
    assert stats.per_stage_counts == (1, 2, 4)
    assert (stats.min_leaf_fanout, stats.max_leaf_fanout) == (2, 3)


def test_single_ff_tree_is_just_the_root():
    tree = generate_tree(["only"], 1)
    assert tree.stages == 1
    assert tree.buffer_ids() == ("b",)
    assert tree.root.cone == ("only",)
    assert tree.root.parent is None
    assert tree.leaves() == (tree.root,)


def test_sizes_match_halving_oracle():
    for n, f in [(1233, 16), (9, 2), (36, 4), (100, 3), (7, 2), (2, 1), (17, 5)]:
        tree = generate_tree(names(n), f)
        expected = halving_sizes(n, f)
        assert tree.stages == len(expected)
        for stage_no, sizes in enumerate(expected, start=1):
            got = [len(b.cone) for b in tree.buffers if b.stage == stage_no]
            assert got == sizes, (n, f, stage_no)


def test_buffer_id_encodes_path_and_stage():
    tree = generate_tree(names(9), 2)
    for b in tree.buffers:
        assert b.id[0] == "b" and set(b.id[1:]) <= {"0", "1"}
        assert b.stage == len(b.id)  # root "b" is stage 1
        if b.parent is None:
            assert b.id == "b"
        else:
            assert b.parent == b.id[:-1]
            assert tree.cone(b.id) != ()
            assert set(tree.cone(b.id)) <= set(tree.cone(b.parent))


def test_larger_half_goes_left():
    tree = generate_tree(names(9), 2)
    assert len(tree.cone("b0")) == 5 and len(tree.cone("b1")) == 4
    assert len(tree.cone("b00")) == 3 and len(tree.cone("b01")) == 2


def test_cones_are_in_document_order():
    # document order deliberately disagrees with lexicographic order
    doc_order = ["z.ff", "m.ff", "a.ff", "q.ff"]
    tree = generate_tree(doc_order, 1, ByName())
    assert tree.root.cone == tuple(doc_order)
    for b in tree.buffers:
        positions = [doc_order.index(f) for f in b.cone]
        assert positions == sorted(positions)
    shuffled = generate_tree(doc_order, 1, RandomShuffle(7))
    assert shuffled.root.cone == tuple(doc_order)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=700),
    f=st.integers(min_value=1, max_value=40),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
)
def test_every_stage_partitions_the_ffs(n, f, seed):
    grouping = ByName() if seed is None else RandomShuffle(seed)
    all_ffs = set(names(n))
    tree = generate_tree(names(n), f, grouping)
    for stage_no in range(1, tree.stages + 1):
        cones = [b.cone for b in tree.buffers if b.stage == stage_no]
        flat = [ff for cone in cones for ff in cone]
        assert len(flat) == n
        assert set(flat) == all_ffs
    assert tree_stats(tree).total_cone_size == tree.stages * n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=700),
    f=st.integers(min_value=1, max_value=40),
)
def test_leaf_fanout_bounds(n, f):
    tree = generate_tree(names(n), f)
    stats = tree_stats(tree)
    assert stats.max_leaf_fanout - stats.min_leaf_fanout <= 1
    if tree.stages > 1:
        assert stats.min_leaf_fanout >= f
        assert stats.max_leaf_fanout <= 2 * f
    else:
        assert stats.max_leaf_fanout == n


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    f=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_topology_is_grouping_independent(n, f, seed):
    by_name = tree_stats(generate_tree(names(n), f, ByName()))
    shuffled = tree_stats(generate_tree(names(n), f, RandomShuffle(seed)))
    assert by_name == shuffled


def test_generation_is_deterministic():
    a = generate_tree(names(50), 3, RandomShuffle(42))
    b = generate_tree(names(50), 3, RandomShuffle(42))
    assert a == b
    assert serialize_tree(a) == serialize_tree(b)


def test_different_seeds_give_different_cones():
    a = generate_tree(names(64), 2, RandomShuffle(1))
    b = generate_tree(names(64), 2, RandomShuffle(2))
    assert a.leaves() != b.leaves()
    assert tree_stats(a) == tree_stats(b)


def test_round_trip_both_groupings():
    for grouping in (ByName(), RandomShuffle(99)):
        tree = generate_tree(names(36), 4, grouping)
        assert parse_tree(serialize_tree(tree)) == tree


def test_unknown_buffer_is_an_error():
    tree = generate_tree(names(9), 2)
    with pytest.raises(UnknownBufferError, match="b000"):
        tree.cone("b000")


def test_bad_parameters_rejected():
    with pytest.raises(ClockTreeError, match="zero"):
        generate_tree([], 2)
    with pytest.raises(ClockTreeError, match="unique"):
        generate_tree(["a", "a"], 2)
    with pytest.raises(ClockTreeError, match="min_fanout"):
        generate_tree(names(4), 0)


def test_parse_rejects_malformed_documents():
    with pytest.raises(ClockTreeError, match="syntax"):
        parse_tree("{nope")
    with pytest.raises(ClockTreeError, match="malformed"):
        parse_tree('{"grouping": {"mode": "by_name"}, "buffers": [{}]}')
    with pytest.raises(ClockTreeError, match="grouping mode"):
        parse_tree('{"grouping": {"mode": "starlike"}, "buffers": [], "stages": 1, "min_fanout": 1}')


def two_stage(*buffers, stages=2):
    """A tree of root ``b`` over ``x``, ``y`` and the given buffers."""
    return ClockTree((ClockBuffer("b", 1, None, ("x", "y")), *buffers), stages, 1, ByName())


@pytest.mark.parametrize("build, message", [
    (lambda: ClockTree((), 1, 1, ByName()), "lists no buffers"),
    (lambda: ClockTree((ClockBuffer("b", 1, None, ("t", "t")),), 1, 1, ByName()),
     "cone of buffer 'b' names flip-flop 't' more than once"),
    (lambda: two_stage(ClockBuffer("b", 2, "b", ("x",)), stages=1), "duplicate buffer ids"),
    (lambda: ClockTree((ClockBuffer("b", 2, None, ("x",)),), 2, 1, ByName()),
     "root buffer 'b' must sit at stage 1"),
    (lambda: two_stage(ClockBuffer("b0", 2, "b", ("x", "y")), ClockBuffer("b1", 2, "b", ("y",))),
     "buffers 'b0' and 'b1' share 'y'"),
    (lambda: two_stage(ClockBuffer("b0", 2, "b", ("x",))), "no buffer at stage 2 clocks flip-flop 'y'"),
    (lambda: two_stage(ClockBuffer("b0", 2, "b", ("x", "y", "z"))),
     "buffer 'b0' clocks flip-flop 'z', its parent does not"),
    (lambda: two_stage(ClockBuffer("b0", 2, "nobody", ("x", "y"))), "is not one stage below a listed parent"),
    (lambda: two_stage(ClockBuffer("b0", 2, None, ("x", "y"))), "is not one stage below a listed parent"),
    (lambda: two_stage(ClockBuffer("b0", 3, "b", ("x", "y")), stages=3), "is not one stage below a listed parent"),
    (lambda: two_stage(stages=2), "do not fill stages 1 to 2"),
    (lambda: two_stage(ClockBuffer("b0", 2, "b", ("x", "y")), stages=1), "do not fill stages 1 to 1"),
    (lambda: two_stage(stages=0), "'stages' must be an integer >= 1, got 0"),
    (lambda: two_stage(ClockBuffer("b0", 2, "b", ("x", "y")), stages=True),
     "'stages' must be an integer >= 1, got True"),
], ids=["empty", "cone-names-twice", "duplicate-ids", "root-below-stage-1", "siblings-overlap",
        "stage-drops-a-flip-flop", "child-outside-parent", "unknown-parent", "second-root",
        "skips-a-stage", "leaf-above-last-stage", "children-below-last-stage", "zero-stages",
        "boolean-stages"])
def test_tree_rule_is_enforced_on_construction(build, message):
    with pytest.raises(ClockTreeError, match=re.escape(message)):
        build()


def test_tree_rule_does_not_depend_on_buffer_order():
    tree = generate_tree(names(9), 2)
    root, *rest = tree.buffers
    shuffled = ClockTree((root, *reversed(rest)), tree.stages, tree.min_fanout, tree.grouping)
    assert parse_tree(serialize_tree(shuffled)) == shuffled


def test_random_grouping_spreads_document_neighbours():
    # With 128 names and fanout 2 the by-name leaves are contiguous runs;
    # a shuffled grouping almost surely breaks at least one run apart.
    tree = generate_tree(names(128), 2, RandomShuffle(5))
    runs = [b.cone for b in tree.leaves()]
    contiguous = all(
        int(cone[-1][2:]) - int(cone[0][2:]) == len(cone) - 1 for cone in runs
    )
    assert not contiguous
