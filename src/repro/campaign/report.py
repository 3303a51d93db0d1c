"""Campaign reports.

Text and CSV renderings of campaign results — the "failure report"
output of the flow.  Everything is plain fixed-width text so reports
diff cleanly between campaigns.
"""

from __future__ import annotations

import csv
import io

from .classify import CLASSES
from .results import _target_of


def _format_table(rows):
    """Fixed-width table from a list of string rows (first = header)."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def classification_summary(result):
    """Aggregate class counts table."""
    counts = result.counts()
    total = len(result)
    rows = [["class", "runs", "fraction"]]
    for label in CLASSES:
        n = counts[label]
        frac = f"{n / total:.1%}" if total else "-"
        rows.append([label, str(n), frac])
    rows.append(["total", str(total), "100.0%" if total else "-"])
    return _format_table(rows)


def per_target_table(result):
    """Per-injection-target class breakdown."""
    table = result.by_target()
    rows = [["target"] + list(CLASSES) + ["error rate"]]
    for target in sorted(table):
        counter = table[target]
        total = sum(counter.values())
        errors = total - counter.get(CLASSES[0], 0)
        rows.append(
            [target]
            + [str(counter.get(label, 0)) for label in CLASSES]
            + [f"{errors / total:.1%}" if total else "-"]
        )
    return _format_table(rows)


def sampling_headline(sampling, percent=True):
    """The one-line answer of a sampled campaign.

    ``error rate 2.3% ± 0.4% (95% confidence), 48112 of 5000000
    faults simulated`` — rendered from the sampler summary dict
    stored in ``result.execution["sampling"]``.
    """
    fmt = "{:.1%}" if percent else "{:.4f}"
    level = f"{sampling['confidence']:.0%}"
    return (
        f"error rate {fmt.format(sampling['estimate'])}"
        f" ± {fmt.format(sampling['half_width'])}"
        f" ({level} confidence),"
        f" {sampling['simulated']:,} of {sampling['population']:,}"
        " faults simulated"
    )


def sampling_summary(sampling):
    """Report section for a sampled campaign's estimates.

    Headline, stop reason, and the per-stratum estimate table with
    Wilson intervals; strata that ran out of faults before their
    interval closed are flagged ``starved`` (their estimate is
    exact for the population but wider than the requested margin).
    """
    lines = [
        sampling_headline(sampling),
        f"stopped         : {sampling['reason']}"
        f" (margin ±{sampling['margin']:.2%}"
        f" at {sampling['confidence']:.0%},"
        f" {sampling['rounds']} rounds / {sampling['chunks']} chunks,"
        f" seed {sampling['seed']}, strata {sampling['strata_mode']})",
    ]
    if sampling.get("failed"):
        lines.append(
            f"failed runs     : {sampling['failed']}"
            " (excluded from estimate trials)"
        )
    rows = [[
        "stratum", "population", "trials", "errors", "estimate",
        "interval", "state",
    ]]
    for stratum in sampling.get("strata", ()):
        if stratum["converged"]:
            state = "converged"
        elif stratum["starved"]:
            state = "starved"
        elif stratum["exhausted"]:
            state = "exhausted"
        else:
            state = "stopped early"
        interval = (
            f"{stratum['low']:.1%} .. {stratum['high']:.1%}"
            if stratum["trials"] else "-"
        )
        rows.append([
            stratum["stratum"],
            str(stratum["population"]),
            str(stratum["trials"]),
            str(stratum["errors"]),
            f"{stratum['estimate']:.1%}" if stratum["trials"] else "-",
            interval,
            state,
        ])
    lines.append(_format_table(rows))
    starved = [
        s["stratum"] for s in sampling.get("strata", ()) if s["starved"]
    ]
    if starved:
        lines.append(
            f"starved strata  : {', '.join(starved)} — population "
            "exhausted before the interval reached the margin"
        )
    return "\n".join(lines)


def execution_summary(result):
    """How the campaign ran: mode, checkpoints, events, warm stats.

    Renders :attr:`CampaignResult.execution` — the warm-start /
    checkpoint accounting that used to stay buried in the result
    object — as a report section.  Returns an empty string for
    hand-assembled results with no execution record.
    """
    ex = result.execution
    if not ex:
        return ""
    lines = [
        f"mode            : {ex.get('mode', '?')} start"
        f" ({ex.get('workers', 1)} worker"
        f"{'s' if ex.get('workers', 1) != 1 else ''})",
        f"kernel events   : {ex.get('kernel_events', 0)}"
        f" (golden {ex.get('golden_events', 0)}"
        f" + faulty {ex.get('fault_events', 0)})",
    ]
    if ex.get("mode", "").endswith(("warm", "batched")):
        lines.append(f"checkpoints     : {ex.get('checkpoints', 0)}")
        if "warm_hits" in ex:
            lines.append(
                f"warm restores   : {ex['warm_hits']} hit"
                f" / {ex['warm_misses']} miss (replayed from t=0)"
            )
    batch = ex.get("batch")
    if batch:
        lines.append(
            f"batch mode      : {batch.get('mode', 'auto')}"
            f" ({batch.get('batches', 0)} batches:"
            f" {batch.get('analog_batches', 0)} analog,"
            f" {batch.get('digital_batches', 0)} digital)"
        )
        lines.append(
            f"batched runs    : {batch.get('batched_runs', 0)} batched"
            f" / {batch.get('scalar_runs', 0)} scalar"
            f" ({batch.get('peeled', 0)} peeled,"
            f" {batch.get('fallbacks', 0)} fallbacks)"
        )
        if batch.get("converged") or batch.get("branch_snapshots"):
            lines.append(
                f"re-convergence  : {batch.get('converged', 0)} mutants"
                f" spliced onto golden tails"
                f" ({batch.get('branch_snapshots', 0)} golden nodes captured,"
                f" {batch.get('golden_node_hits', 0)} reused)"
            )
    sampling = ex.get("sampling")
    if sampling:
        lines.append(f"sampling        : {sampling_headline(sampling)}")
        lines.append(
            f"early stop      : {sampling['reason']} after"
            f" {sampling['trials']} trials;"
            f" {sampling['skipped']} faults never simulated"
        )
    if "wall_s" in ex:
        completed = ex.get("completed", len(result))
        rate = completed / ex["wall_s"] if ex["wall_s"] > 0 else 0.0
        lines.append(
            f"wall time       : {ex['wall_s']:.3g} s"
            f" ({rate:.2f} runs/s)"
        )
    phases = ex.get("phases")
    if phases and any(phases.values()):
        parts = [
            f"{name} {phases[name]:.3g}s"
            for name in ("restore", "step", "classify", "store_write")
            if phases.get(name)
        ]
        lines.append(f"phase breakdown : {', '.join(parts)}")
    if ex.get("skipped"):
        lines.append(
            f"resumed         : {ex['skipped']} runs loaded from store, "
            f"{ex.get('completed', 0)} executed"
        )
    if ex.get("errors"):
        lines.append(f"run errors      : {ex['errors']}")
    if ex.get("retries"):
        lines.append(f"retries         : {ex['retries']}")
    breakdown = [
        f"{ex[key]} {key}"
        for key in ("timeouts", "diverged", "crashed")
        if ex.get(key)
    ]
    if breakdown:
        lines.append(f"failed runs     : {', '.join(breakdown)}")
    if ex.get("quarantined"):
        lines.append(
            f"quarantined     : {ex['quarantined']}"
            " (skipped on resume unless retried explicitly)"
        )
    return "\n".join(lines)


def error_listing(result, limit=None):
    """One line per failed run (``on_error="collect"`` campaigns)."""
    errors = getattr(result, "errors", None) or []
    lines = []
    for err in errors[: limit if limit is not None else len(errors)]:
        lines.append(err.describe())
    if limit is not None and len(errors) > limit:
        lines.append(f"... ({len(errors) - limit} more)")
    return "\n".join(lines)


def fault_listing(result, limit=None):
    """One line per run: fault description and class."""
    lines = []
    for run in result.runs[: limit if limit is not None else len(result.runs)]:
        lines.append(run.describe())
    if limit is not None and len(result.runs) > limit:
        lines.append(f"... ({len(result.runs) - limit} more)")
    return "\n".join(lines)


def full_report(result, listing_limit=20):
    """Complete text report: header, summary, per-target, worst runs."""
    from .stats import estimate_error_rate

    sections = [
        f"=== campaign report: {result.spec.name} ===",
        result.spec.describe(),
        "",
        "--- classification summary ---",
        classification_summary(result),
    ]
    sampling = (result.execution or {}).get("sampling")
    if sampling:
        sections.extend(
            ["", "--- sampling estimate ---", sampling_summary(sampling)]
        )
    elif len(result):
        rate, (low, high) = estimate_error_rate(result)
        half = (high - low) / 2.0
        sections.append(
            f"error rate: {rate:.1%} ± {half:.1%}"
            f"  (95% Wilson CI: {low:.1%} .. {high:.1%})"
        )
    sections.extend(
        [
            "",
            "--- per-target breakdown ---",
            per_target_table(result),
            "",
            "--- fault listing ---",
            fault_listing(result, listing_limit),
        ]
    )
    if result.execution:
        sections.extend(
            ["", "--- execution ---", execution_summary(result)]
        )
    if getattr(result, "errors", None):
        sections.extend(
            [
                "",
                f"--- run errors ({len(result.errors)}) ---",
                error_listing(result, listing_limit),
            ]
        )
    return "\n".join(sections)


#: One-character severity glyphs for the sensitivity matrix.
SEVERITY_GLYPHS = {
    "silent": ".",
    "latent": "o",
    "transient-error": "T",
    "failure": "F",
}


def sensitivity_matrix(result):
    """ASCII target x injection-time severity map.

    The designer's at-a-glance view of *where* and *when* the circuit
    is vulnerable: one row per injection target, one column per
    distinct injection time, each cell the severity glyph of that run
    (``.`` silent, ``o`` latent, ``T`` transient error, ``F`` failure,
    blank = combination not injected).
    """
    times = sorted({
        getattr(run.fault, "time", None)
        for run in result.runs
        if getattr(run.fault, "time", None) is not None
    })
    if not times:
        return "no timed faults in this campaign"
    index = {t: k for k, t in enumerate(times)}
    rows = {}
    for run in result.runs:
        time = getattr(run.fault, "time", None)
        if time is None:
            continue
        target = _target_of(run.fault)
        cells = rows.setdefault(target, [" "] * len(times))
        cells[index[time]] = SEVERITY_GLYPHS.get(run.label, "?")
    width = max(len(t) for t in rows)
    lines = [
        f"{'target'.ljust(width)}  "
        + "".join("|" if k % 10 == 0 else " " for k in range(len(times))),
        f"{''.ljust(width)}  first column at "
        f"{times[0] * 1e9:.1f} ns, last at {times[-1] * 1e9:.1f} ns",
    ]
    for target in sorted(rows):
        lines.append(f"{target.ljust(width)}  {''.join(rows[target])}")
    lines.append(
        "legend: . silent   o latent   T transient-error   F failure"
    )
    return "\n".join(lines)


def to_csv(result):
    """CSV export: one row per run with key comparison metrics."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "index",
            "fault",
            "target",
            "class",
            "first_output_divergence_s",
            "output_mismatch_time_s",
            "diverged_outputs",
            "diverged_internal",
        ]
    )
    for index, run in enumerate(result.runs):
        cls = run.classification
        writer.writerow(
            [
                index,
                run.fault.describe(),
                _target_of(run.fault),
                cls.label,
                "" if cls.first_output_divergence is None
                else f"{cls.first_output_divergence:.12g}",
                f"{cls.output_mismatch_time:.12g}",
                ";".join(cls.diverged_outputs),
                ";".join(cls.diverged_internal),
            ]
        )
    return buffer.getvalue()
