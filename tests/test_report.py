from fractions import Fraction

import pytest

from cdnfi.campaign import (
    CampaignConfig,
    CampaignResult,
    FFTally,
    Tally,
    run_campaign,
)
from cdnfi.faults import FaultKind
from cdnfi.report import (
    FitLibrary,
    ReportError,
    as_fraction,
    combine_fit,
    emit,
    fdr,
    overlap,
    rank_ffs,
    render_rate,
)
from cdnfi.simulator import Simulator


def fake_result(per_ff, mode=FaultKind.SEU, label="", totals=None, per_target=None):
    return CampaignResult(
        netlist_name="fake",
        mode=mode,
        seed=0,
        injections_per_target=1,
        shared_time_list=True,
        records=(),
        totals=totals or Tally(),
        per_target=per_target or {},
        per_ff=per_ff,
        label=label,
    )


# ---------------------------------------------------------------------------
# rationals and rendering


def test_as_fraction_forms():
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(0.27) == Fraction(27, 100)
    assert as_fraction("0.05") == Fraction(1, 20)


def test_render_rate_reference_values():
    assert render_rate(Fraction(5423, 21590)) == "0.2512"
    assert render_rate(Fraction(57150, 209610)) == "0.2726"


def test_render_rate_digits():
    assert render_rate(0) == "0.0000"
    assert render_rate(Fraction(1, 3)) == "0.3333"
    assert render_rate(Fraction(1, 2)) == "0.5000"
    assert render_rate(Fraction(1, 100000)) == "0.00001000"
    assert render_rate(Fraction(2, 3), sig_digits=6) == "0.666667"


def test_fdr_is_exact():
    assert fdr(5423, 21590) == Fraction(5423, 21590)
    assert fdr(0, 10) == 0
    assert fdr(10, 10) == 1


def test_fdr_bounds():
    with pytest.raises(ReportError, match="positive"):
        fdr(1, 0)
    with pytest.raises(ReportError, match="outside"):
        fdr(11, 10)
    with pytest.raises(ReportError, match="outside"):
        fdr(-1, 10)


# ---------------------------------------------------------------------------
# rankings


def test_ranking_keeps_five_percent_floored():
    per_ff = {
        f"ff{i:04d}": FFTally(times_upset=10, times_upset_and_failed=i % 11)
        for i in range(1233)
    }
    ranking = rank_ffs(fake_result(per_ff))
    assert len(ranking.entries) == 61  # floor(1233 / 20)
    expected = sorted(
        ((Fraction(i % 11, 10), f"ff{i:04d}") for i in range(1233)),
        key=lambda pair: (-pair[0], pair[1]),
    )[:61]
    assert [(e.rate, e.name) for e in ranking.entries] == expected


def test_ranking_minimum_one_entry():
    per_ff = {"a": FFTally(times_upset=4, times_upset_and_failed=1)}
    ranking = rank_ffs(fake_result(per_ff), fraction=Fraction(1, 100))
    assert ranking.names() == ("a",)


def test_ranking_ties_break_by_name():
    per_ff = {
        "b": FFTally(times_upset=2, times_upset_and_failed=1),
        "a": FFTally(times_upset=2, times_upset_and_failed=1),
        "c": FFTally(times_upset=2, times_upset_and_failed=2),
    }
    ranking = rank_ffs(fake_result(per_ff), fraction=1)
    assert ranking.names() == ("c", "a", "b")


def test_ranking_undisturbed_ff_rates_zero():
    per_ff = {
        "quiet": FFTally(),
        "loud": FFTally(times_upset=1, times_upset_and_failed=1),
    }
    ranking = rank_ffs(fake_result(per_ff), fraction=1)
    assert ranking.names() == ("loud", "quiet")
    assert ranking.entries[1].rate == 0
    assert ranking.entries[1].denominator == 0


def test_ranking_mode_selects_the_denominator():
    per_ff = {
        "x": FFTally(times_changed=4, times_changed_and_failed=4,
                     times_upset=5, times_upset_and_failed=0),
        "y": FFTally(times_changed=2, times_changed_and_failed=0,
                     times_upset=4, times_upset_and_failed=4),
    }
    set_ranking = rank_ffs(fake_result(per_ff, mode=FaultKind.SET), fraction=1)
    assert set_ranking.mode is FaultKind.SET
    assert set_ranking.names() == ("x", "y")
    assert [(e.numerator, e.denominator) for e in set_ranking.entries] == [(4, 4), (0, 2)]
    seu_ranking = rank_ffs(fake_result(per_ff, mode=FaultKind.SEU), fraction=1)
    assert seu_ranking.mode is FaultKind.SEU
    assert seu_ranking.names() == ("y", "x")
    assert [(e.numerator, e.denominator) for e in seu_ranking.entries] == [(4, 4), (0, 5)]


def test_ranking_fraction_bounds():
    per_ff = {"a": FFTally()}
    with pytest.raises(ReportError, match="fraction"):
        rank_ffs(fake_result(per_ff), fraction=0)
    with pytest.raises(ReportError, match="fraction"):
        rank_ffs(fake_result(per_ff), fraction=Fraction(6, 5))


# ---------------------------------------------------------------------------
# overlap


def test_overlap_reference_values():
    a = [f"a{i}" for i in range(60)]
    b = a[:42] + [f"b{i}" for i in range(18)]
    assert overlap(a, b) == Fraction(7, 10)
    assert render_rate(overlap(a, b)) == "0.7000"
    c = a[:3] + [f"c{i}" for i in range(57)]
    assert overlap(a, c) == Fraction(1, 20)
    assert render_rate(overlap(a, c)) == "0.05000"


def test_overlap_symmetry_and_size_normalization():
    a = ["x", "y", "z"]
    b = ["x", "w"]
    assert overlap(a, b) == overlap(b, a) == Fraction(1, 3)
    assert overlap(a, a) == 1


def test_overlap_empty_rejected():
    with pytest.raises(ReportError, match="non-empty"):
        overlap([], ["a"])


# ---------------------------------------------------------------------------
# FIT combination


def test_combine_fit_reference_values():
    assert combine_fit(1233, "0.27", "161.75").failure_rate == 53848
    assert combine_fit(127, "0.25", "59.17").failure_rate == 1878
    assert combine_fit(127, "0.52", "59.17").failure_rate == 3907


def test_combine_fit_is_exact_not_float():
    s = combine_fit(1233, Fraction(27, 100), Fraction(647, 4), "flipflop")
    assert s.exact_rate == Fraction(1233 * 27 * 647, 400)
    assert s.failure_rate == 53848
    assert s.element_type == "flipflop"
    assert s.avg_fdr == Fraction(27, 100)


def test_combine_fit_bounds():
    with pytest.raises(ReportError, match="count"):
        combine_fit(-1, "0.5", "1")
    with pytest.raises(ReportError, match="de-rating"):
        combine_fit(1, "1.5", "1")
    with pytest.raises(ReportError, match="FIT"):
        combine_fit(1, "0.5", "-1")


def test_fit_library_parsing():
    lib = FitLibrary.from_csv("cell_class,fit\nclock_buffer,59.17\nflipflop,161.75\n")
    assert lib.get("clock_buffer") == Fraction(5917, 100)
    assert lib.get("flipflop") == Fraction(647, 4)
    headerless = FitLibrary.from_csv("clock_buffer,59.17\n")
    assert headerless.get("clock_buffer") == Fraction(5917, 100)
    with pytest.raises(ReportError, match="no cell class"):
        lib.get("diode")
    with pytest.raises(ReportError, match=">= 0"):
        FitLibrary.from_csv("x,-3\n")
    with pytest.raises(ReportError, match="row"):
        FitLibrary.from_csv("x,1,2\n")
    assert lib.fit == {"clock_buffer": Fraction(5917, 100), "flipflop": Fraction(647, 4)}


# ---------------------------------------------------------------------------
# report bundles


@pytest.fixture()
def two_campaigns(lfsr, lfsr_stimulus, lfsr_golden):
    a = run_campaign(
        Simulator(lfsr), lfsr_stimulus,
        CampaignConfig(FaultKind.SEU, 4, seed=100),
        golden=lfsr_golden, label="seu_a",
    )
    b = run_campaign(
        Simulator(lfsr), lfsr_stimulus,
        CampaignConfig(FaultKind.SEU, 4, seed=200),
        golden=lfsr_golden, label="seu_b",
    )
    return [a, b]


def test_emit_bundle_files(two_campaigns, tmp_path):
    lib = FitLibrary.from_csv("clock_buffer,59.17\nflipflop,161.75\n")
    written = emit(two_campaigns, tmp_path / "out", fit_library=lib)
    names = {p.name for p in written}
    assert names == {
        "totals.csv", "per_target_fdr.csv", "ranking_seu_a.csv",
        "ranking_seu_b.csv", "overlap.csv", "failure_spread.csv",
        "rate_summary.csv", "summary.txt",
    }
    for p in written:
        assert p.exists() and p.stat().st_size > 0


def test_emit_single_campaign_has_no_cross_tables(two_campaigns, tmp_path):
    written = emit(two_campaigns[:1], tmp_path)
    names = {p.name for p in written}
    assert names == {"totals.csv", "per_target_fdr.csv", "ranking_seu_a.csv", "summary.txt"}


def test_emit_totals_row(two_campaigns, tmp_path):
    emit(two_campaigns, tmp_path)
    lines = (tmp_path / "totals.csv").read_text().splitlines()
    assert lines[0] == (
        "label,netlist,mode,injected,reached,changed,unchanged,failures,"
        "reached_per_injection,changed_per_injection,unchanged_per_injection,fdr"
    )
    row = lines[1].split(",")
    t = two_campaigns[0].totals
    assert row[0] == "seu_a"
    assert row[3] == str(t.injected)
    assert row[7] == str(t.failures)
    assert row[11] == render_rate(Fraction(t.failures, t.injected))


def test_emit_bytes_are_deterministic(two_campaigns, tmp_path):
    lib = FitLibrary.from_csv("clock_buffer,59.17\nflipflop,161.75\n")
    w1 = emit(two_campaigns, tmp_path / "one", fit_library=lib)
    w2 = emit(two_campaigns, tmp_path / "two", fit_library=lib)
    assert [p.name for p in w1] == [p.name for p in w2]
    for p1, p2 in zip(w1, w2):
        assert p1.read_bytes() == p2.read_bytes()


def test_emit_text_format_uses_tabs(two_campaigns, tmp_path):
    written = emit(two_campaigns[:1], tmp_path, fmt="text")
    totals = next(p for p in written if p.name == "totals.txt")
    assert "\t" in totals.read_text().splitlines()[0]
    with pytest.raises(ReportError, match="format"):
        emit(two_campaigns, tmp_path, fmt="yaml")


def test_emit_overlap_matrix_is_symmetric(two_campaigns, tmp_path):
    emit(two_campaigns, tmp_path)
    lines = (tmp_path / "overlap.csv").read_text().splitlines()
    assert lines[0] == "label,seu_a,seu_b"
    grid = [line.split(",") for line in lines[1:]]
    assert grid[0][0] == "seu_a" and grid[1][0] == "seu_b"
    assert grid[0][1] == grid[1][2] == render_rate(1)  # self-overlap
    assert grid[0][2] == grid[1][1]


def test_emit_failure_spread(two_campaigns, tmp_path):
    emit(two_campaigns, tmp_path)
    lines = (tmp_path / "failure_spread.csv").read_text().splitlines()
    stats = dict(line.split(",", 1) for line in lines[1:])
    f = [r.totals.failures for r in two_campaigns]
    assert stats["failures_min"] == str(min(f))
    assert stats["failures_max"] == str(max(f))
    assert stats["failures_mean"] == render_rate(Fraction(sum(f), len(f)))
    assert float(stats["failures_stddev_sample"]) >= 0
    assert float(stats["failures_stddev_population"]) >= 0
    fdrs = [Fraction(r.totals.failures, r.totals.injected) for r in two_campaigns]
    assert stats["fdr_mean"] == render_rate(sum(fdrs, Fraction(0)) / 2)


def test_emit_rate_summary_uses_explicit_counts(two_campaigns, lfsr, tmp_path):
    lib = FitLibrary.from_csv("clock_buffer,59.17\nflipflop,161.75\n")
    emit(two_campaigns, tmp_path, fit_library=lib)
    lines = (tmp_path / "rate_summary.csv").read_text().splitlines()
    assert lines[0].startswith("element_type,element_count,avg_fdr")
    row = lines[1].split(",")
    # the flip-flops of the first upset campaign: every one of the netlist
    ff_count = len(lfsr.flipflops)
    assert row[0] == "flipflop" and row[1] == str(ff_count)
    fdrs = [Fraction(r.totals.failures, r.totals.injected) for r in two_campaigns]
    mean = sum(fdrs, Fraction(0)) / 2
    expected = combine_fit(ff_count, mean, Fraction(647, 4))
    assert row[4] == str(expected.failure_rate)
