"""Failure-rate analysis on top of campaign results.

All rates are carried as exact rationals and only rendered to a fixed number
of significant digits at the output boundary, so report files are stable
bytes and no floor/rounding step inherits binary float noise. The headline
quantities: the functional de-rating factor of a campaign (failures over
injections), per-flip-flop vulnerability rankings, overlap between rankings
of different clock networks, and device failure rates obtained by combining
de-rating with per-element FIT values.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .campaign import CampaignResult
from .faults import FaultKind


class ReportError(Exception):
    pass


Rational = Union[int, float, str, Fraction, Decimal]


def as_fraction(x: Rational) -> Fraction:
    """Exact rational from a number; floats go through their decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def render_rate(x: Rational, sig_digits: int = 4) -> str:
    """Render a rational with at least sig_digits significant digits."""
    frac = as_fraction(x)
    if frac == 0:
        return "0." + "0" * sig_digits
    with localcontext() as ctx:
        ctx.prec = sig_digits
        d = Decimal(frac.numerator) / Decimal(frac.denominator)
        # an exact division can come back short (7/10 -> 0.7); pad it out
        # so every rendered value carries the full significant digits
        target_exp = d.adjusted() - (sig_digits - 1)
        if d.as_tuple().exponent > target_exp:
            d = d.quantize(Decimal((0, (1,), target_exp)))
    return format(d, "f")


def fdr(failures: int, injections: int) -> Fraction:
    """Functional de-rating: fraction of injections that produced a failure."""
    if injections <= 0:
        raise ReportError(f"injection count must be positive, got {injections}")
    if not (0 <= failures <= injections):
        raise ReportError(
            f"failure count {failures} outside 0..{injections} injections"
        )
    return Fraction(failures, injections)


# ---------------------------------------------------------------------------
# vulnerability ranking


@dataclass(frozen=True)
class RankEntry:
    name: str
    rate: Fraction
    numerator: int
    denominator: int


@dataclass(frozen=True)
class VulnerabilityRanking:
    mode: FaultKind
    fraction: Fraction
    entries: tuple[RankEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)


def rank_ffs(
    result: CampaignResult,
    fraction: Rational = Fraction(1, 20),
) -> VulnerabilityRanking:
    """Most vulnerable flip-flops of a campaign.

    A flip-flop's rate is its failures among the injections that actually
    disturbed it: changed-and-failed over changed in a clock-transient
    campaign, upset-and-failed over upset in an upset campaign. A flip-flop
    never disturbed gets rate zero. The list keeps the top
    floor(fraction * ff_count) entries, at least one; ties break by name so
    rankings are reproducible.
    """
    frac = as_fraction(fraction)
    if not (0 < frac <= 1):
        raise ReportError(f"ranking fraction must be in (0, 1], got {fraction}")
    entries = []
    for name, tally in result.per_ff.items():
        den, num = tally.counts(result.mode)
        rate = Fraction(num, den) if den else Fraction(0)
        entries.append(RankEntry(name, rate, num, den))
    entries.sort(key=lambda e: (-e.rate, e.name))
    count = max(1, int(frac * len(entries)))
    return VulnerabilityRanking(result.mode, frac, tuple(entries[:count]))


def overlap(a: Iterable[str], b: Iterable[str]) -> Fraction:
    """Shared names between two rankings, relative to the larger list."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ReportError("overlap needs two non-empty name lists")
    return Fraction(len(sa & sb), max(len(sa), len(sb)))


# ---------------------------------------------------------------------------
# FIT combination


@dataclass(frozen=True)
class FitLibrary:
    """Failures-in-time (failures per 1e9 device hours) per cell class."""

    fit: Mapping[str, Fraction]

    def get(self, cell_class: str) -> Fraction:
        try:
            return self.fit[cell_class]
        except KeyError:
            raise ReportError(f"FIT library has no cell class '{cell_class}'") from None

    @classmethod
    def from_csv(cls, text: str) -> "FitLibrary":
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if rows and rows[0] and rows[0][0].strip() == "cell_class":
            rows = rows[1:]
        table = {}
        for row in rows:
            if len(row) != 2:
                raise ReportError(f"FIT library row {row!r} is not 'cell_class,fit'")
            name, value = row[0].strip(), row[1].strip()
            try:
                fit = as_fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ReportError(f"FIT library row {row!r} has a non-numeric FIT value") from None
            if fit < 0:
                raise ReportError(f"FIT for '{name}' must be >= 0, got {value}")
            table[name] = fit
        return cls(table)


def load_fit_library(path) -> FitLibrary:
    with open(path, "r", encoding="utf-8") as fh:
        return FitLibrary.from_csv(fh.read())


@dataclass(frozen=True)
class RateSummary:
    element_type: str
    element_count: int
    avg_fdr: Fraction
    fit_per_element: Fraction
    failure_rate: int        # floor of the exact product
    exact_rate: Fraction


def combine_fit(
    element_count: int,
    avg_fdr: Rational,
    fit_per_element: Rational,
    element_type: str = "",
) -> RateSummary:
    """Device failure rate: count x de-rating x per-element FIT, floored.

    The floor is taken on the exact rational product; the exact value is kept
    alongside so nothing is lost to the integer presentation.
    """
    if element_count < 0:
        raise ReportError(f"element count must be >= 0, got {element_count}")
    fdr_frac = as_fraction(avg_fdr)
    fit_frac = as_fraction(fit_per_element)
    if not (0 <= fdr_frac <= 1):
        raise ReportError(f"average de-rating must be in [0, 1], got {avg_fdr}")
    if fit_frac < 0:
        raise ReportError(f"FIT must be >= 0, got {fit_per_element}")
    exact = element_count * fdr_frac * fit_frac
    return RateSummary(
        element_type=element_type,
        element_count=element_count,
        avg_fdr=fdr_frac,
        fit_per_element=fit_frac,
        failure_rate=exact.numerator // exact.denominator,
        exact_rate=exact,
    )


# ---------------------------------------------------------------------------
# report bundle


def _result_fdr(result: CampaignResult) -> Fraction:
    if result.totals.injected == 0:
        return Fraction(0)
    return fdr(result.totals.failures, result.totals.injected)


def _per_injection(value: int, injected: int) -> str:
    return render_rate(Fraction(value, injected) if injected else 0)


def emit(
    results: Sequence[CampaignResult],
    out_dir,
    fmt: str = "csv",
    fit_library: Optional[FitLibrary] = None,
    top_fraction: Rational = Fraction(1, 20),
) -> list[Path]:
    """Write the report bundle for one or more campaigns.

    Produces a totals table, per-target de-rating tables, a vulnerability
    ranking per campaign, the pairwise ranking overlap matrix when several
    campaigns are given, failure-spread statistics across campaigns, a FIT
    combination table when a library is supplied, and a plain-text summary.
    The FIT table counts the flip-flops of the first upset campaign and the
    targets of the largest transient campaign.
    Output bytes depend only on the inputs. Nothing is written unless the
    labels are distinct and the FIT library has every cell class it needs.
    """
    if fmt not in ("csv", "text"):
        raise ReportError(f"unsupported report format '{fmt}'")
    labels = [r.label or f"campaign{i}" for i, r in enumerate(results)]
    if len(set(labels)) < len(labels):
        raise ReportError(f"campaign labels {', '.join(labels)} are not distinct")
    fit_rows = []
    for mode, cell_class in ((FaultKind.SEU, "flipflop"), (FaultKind.SET, "clock_buffer")):
        same = [r for r in results if r.mode is mode]
        if fit_library is not None and same:
            mean = sum((_result_fdr(r) for r in same), Fraction(0)) / len(same)
            count = len(same[0].per_ff) if mode is FaultKind.SEU else max(len(r.per_target) for r in same)
            fit_rows.append(combine_fit(count, mean, fit_library.get(cell_class), cell_class))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    sep = "," if fmt == "csv" else "\t"
    ext = "csv" if fmt == "csv" else "txt"

    def table(name: str, header: list[str], rows: list[list]) -> None:
        path = out_dir / f"{name}.{ext}"
        buf = io.StringIO()
        w = csv.writer(buf, delimiter=sep, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
        path.write_text(buf.getvalue(), encoding="utf-8")
        written.append(path)

    # campaign totals
    rows = []
    for label, r in zip(labels, results):
        t = r.totals
        rows.append([
            label, r.netlist_name, r.mode.value, t.injected, t.reached,
            t.changed, t.unchanged, t.failures,
            _per_injection(t.reached, t.injected),
            _per_injection(t.changed, t.injected),
            _per_injection(t.unchanged, t.injected),
            render_rate(_result_fdr(r)),
        ])
    table(
        "totals",
        ["label", "netlist", "mode", "injected", "reached", "changed",
         "unchanged", "failures", "reached_per_injection",
         "changed_per_injection", "unchanged_per_injection", "fdr"],
        rows,
    )

    # per-target de-rating
    rows = []
    for label, r in zip(labels, results):
        for target, t in r.per_target.items():
            rows.append([
                label, target, t.injected, t.reached, t.changed,
                t.unchanged, t.failures,
                _per_injection(t.failures, t.injected),
            ])
    table(
        "per_target_fdr",
        ["label", "target", "injected", "reached", "changed", "unchanged",
         "failures", "fdr"],
        rows,
    )

    # vulnerability rankings
    rankings: dict[str, VulnerabilityRanking] = {}
    for label, r in zip(labels, results):
        if not r.per_ff:
            continue
        ranking = rank_ffs(r, fraction=top_fraction)
        rankings[label] = ranking
        table(
            f"ranking_{label}",
            ["name", "rate", "failed", "disturbed"],
            [[e.name, render_rate(e.rate), e.numerator, e.denominator]
             for e in ranking.entries],
        )

    # pairwise ranking overlap
    if len(rankings) >= 2:
        keys = list(rankings)
        rows = []
        for a in keys:
            row: list = [a]
            for b in keys:
                row.append(render_rate(overlap(rankings[a].names(), rankings[b].names())))
            rows.append(row)
        table("overlap", ["label"] + keys, rows)

    # failure spread across campaigns
    if len(results) >= 2:
        failures = [r.totals.failures for r in results]
        failures_mean = render_rate(Fraction(sum(failures), len(failures)))
        failures_stddev = render_rate(statistics.stdev(failures))
        fdrs = [_result_fdr(r) for r in results]
        mean_fdr = sum(fdrs, Fraction(0)) / len(fdrs)
        rows = [
            ["failures_mean", failures_mean],
            ["failures_min", str(min(failures))],
            ["failures_max", str(max(failures))],
            ["failures_stddev_sample", failures_stddev],
            ["failures_stddev_population", render_rate(statistics.pstdev(failures))],
            ["fdr_mean", render_rate(mean_fdr)],
            ["fdr_min", render_rate(min(fdrs))],
            ["fdr_max", render_rate(max(fdrs))],
        ]
        table("failure_spread", ["statistic", "value"], rows)

    # FIT combination
    if fit_library is not None:
        table(
            "rate_summary",
            ["element_type", "element_count", "avg_fdr", "fit_per_element",
             "failure_rate", "failure_rate_exact"],
            [[s.element_type, s.element_count, render_rate(s.avg_fdr),
              render_rate(s.fit_per_element, 6), s.failure_rate,
              render_rate(s.exact_rate, 10)] for s in fit_rows],
        )

    # plain-text summary
    lines = ["campaign report", "================", ""]
    for label, r in zip(labels, results):
        t = r.totals
        lines.append(f"{label}: netlist={r.netlist_name} mode={r.mode.value} seed={r.seed}")
        lines.append(
            f"  injected={t.injected} reached={t.reached} changed={t.changed}"
            f" unchanged={t.unchanged} failures={t.failures}"
            f" fdr={render_rate(_result_fdr(r))}"
        )
    if len(results) >= 2:
        lines.append("")
        lines.append(
            "failures across campaigns:"
            f" mean={failures_mean} min={min(failures)} max={max(failures)}"
            f" stddev_sample={failures_stddev}"
        )
    summary = out_dir / "summary.txt"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(summary)
    return written
