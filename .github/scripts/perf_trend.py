#!/usr/bin/env python3
"""Perf-trend gate for the bench JSON artifacts.

Every gated metric is cycle-derived from the SRAM model's virtual timeline,
so it is deterministic and host-independent:

  * BENCH_table1.json     — measured in-SRAM rows, latency_us per row
  * BENCH_rns_bigmul.json — RNS limb sweep, makespan_cycles per limb count
  * BENCH_rescale.json    — rescale limb sweep, cold/warm cycles per limb count
  * BENCH_rns_rlwe.json   — leveled RLWE sweep, warm-key multiply cycles

Each current value is compared against two references: the committed
baseline (bench/baselines/, updated deliberately when a change is supposed
to shift cycles) and the previous successful run's artifact.  A metric
fails the job only on a SUSTAINED regression — more than the threshold
past the committed baseline AND past the previous run, i.e. regressed
twice in a row.  One noisy or deliberately-rebaselined run therefore
warns; a regression that persists across two runs fails.

With --report <path>, the same comparison is also rendered as a Markdown
trend report (one table per bench file: baseline, previous run, current,
delta, verdict) for upload as a CI artifact.  The report is purely a view
of the artifact history — it never changes what gates.

Usage: perf_trend.py --baseline <dir> --current <dir> [--previous <dir>]
                     [--report <path>]
"""
import argparse
import json
import os
import sys

THRESHOLD = 0.10  # fail past +10%, sustained


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def table1_metrics(doc):
    """name -> latency_us for the measured in-SRAM rows (latency is cycles
    at the model's fixed array clock, so a latency ratio is a cycle ratio)."""
    rows = {}
    for row in doc.get("rows", []):
        if row.get("measured") and row.get("technology") == "In-SRAM":
            latency = row.get("latency_us")
            if isinstance(latency, (int, float)) and latency > 0:
                rows[row.get("name", "?")] = float(latency)
    return rows


def rns_metrics(doc):
    rows = {}
    for row in doc.get("rows", []):
        makespan = row.get("makespan_cycles")
        limbs = row.get("limbs")
        if isinstance(makespan, (int, float)) and makespan > 0 and limbs is not None:
            rows[f"{limbs} limbs"] = float(makespan)
    return rows


def rescale_metrics(doc):
    """Cold and warm makespans per limb count.  The warm repeat is the
    residency path — same operands, transforms served from device-resident
    rows — so gating it catches placement or eviction regressions that the
    cold path cannot see."""
    rows = {}
    for row in doc.get("rows", []):
        limbs = row.get("limbs")
        if limbs is None:
            continue
        for key, label in (("cold_cycles", "cold"), ("warm_cycles", "warm")):
            val = row.get(key)
            if isinstance(val, (int, float)) and val > 0:
                rows[f"{limbs} limbs {label}"] = float(val)
    return rows


def residency_metrics(doc):
    """Advisory view of the on-array residency counters the benches embed:
    the device-row high-water mark and the scheduler's residency-affinity
    claims.  These shift legitimately whenever placement policy changes, so
    they inform the trend report without gating."""
    rows = {}
    for row in doc.get("rows", []):
        limbs = row.get("limbs")
        if limbs is None:
            continue
        for key, label in (("resident_rows_peak", "rows peak"),
                           ("affinity_hits", "affinity hits")):
            val = row.get(key)
            if isinstance(val, (int, float)) and val > 0:
                rows[f"{limbs} limbs {label}"] = float(val)
    return rows


def rns_rlwe_metrics(doc):
    """Warm-key relinearization cost per chain length: the fixed-evk repeat
    multiply is the steady-state leveled workload, so its cycle count is
    what the operand cache is supposed to keep down."""
    rows = {}
    for row in doc.get("rows", []):
        warm = row.get("warm_cycles")
        limbs = row.get("limbs")
        if isinstance(warm, (int, float)) and warm > 0 and limbs is not None:
            rows[f"{limbs} limbs warm"] = float(warm)
    return rows


GATED = [
    ("sram table1", "BENCH_table1.json", table1_metrics, "us"),
    ("rns bigmul", "BENCH_rns_bigmul.json", rns_metrics, "cyc"),
    ("rns rescale", "BENCH_rescale.json", rescale_metrics, "cyc"),
    ("rns rlwe", "BENCH_rns_rlwe.json", rns_rlwe_metrics, "cyc"),
]
ADVISORY = [
    ("rescale residency", "BENCH_rescale.json", residency_metrics, ""),
    ("rlwe residency", "BENCH_rns_rlwe.json", residency_metrics, ""),
]


def ratio(cur, ref):
    return cur / ref - 1.0


def check_file(label, extract, unit, base_doc, prev_doc, cur_doc, gating,
               report_rows=None):
    """Compare one bench file; return the number of sustained regressions.

    When report_rows is a list, every compared metric also appends a row
    dict for the Markdown report (reporting only — gating is unaffected).
    """
    def record(name, base_val, prev_val, cur_val, verdict):
        if report_rows is not None:
            report_rows.append({
                "label": label, "gating": gating, "unit": unit, "name": name,
                "baseline": base_val, "previous": prev_val, "current": cur_val,
                "verdict": verdict,
            })

    if cur_doc is None:
        print(f"::warning title=perf-trend::{label}: current bench JSON missing/unreadable")
        return 0
    cur = extract(cur_doc)
    base = extract(base_doc) if base_doc is not None else {}
    prev = extract(prev_doc) if prev_doc is not None else {}
    if not base:
        print(f"perf-trend[{label}]: no committed baseline rows; skipping")
        for name, cur_val in sorted(cur.items()):
            record(name, None, prev.get(name), cur_val, "no baseline")
        return 0

    sustained = 0
    for name, cur_val in sorted(cur.items()):
        base_val = base.get(name)
        if base_val is None:
            print(f"perf-trend[{label}]: new row '{name}' ({cur_val:.4g} {unit}), "
                  "no baseline — commit one in bench/baselines/")
            record(name, None, prev.get(name), cur_val, "new row")
            continue
        d_base = ratio(cur_val, base_val)
        line = (f"perf-trend[{label}]: {name}: baseline {base_val:.4g} -> "
                f"{cur_val:.4g} {unit} ({d_base:+.1%})")
        # "Twice in a row" means the PREVIOUS run was also past the
        # committed baseline — not that current moved vs previous (a
        # persisting regression is flat run-to-run).
        prev_val = prev.get(name)
        if prev_val is not None:
            d_prev = ratio(prev_val, base_val)
            line += f", prev run {prev_val:.4g} ({d_prev:+.1%} vs baseline)"
        else:
            d_prev = None
        regressed_base = d_base > THRESHOLD
        regressed_prev = d_prev is not None and d_prev > THRESHOLD

        if not gating:
            print(line + (" [advisory]" if regressed_base else ""))
            record(name, base_val, prev_val, cur_val,
                   "advisory" if regressed_base else "ok")
            continue
        if regressed_base and regressed_prev:
            sustained += 1
            print(line + " SUSTAINED REGRESSION")
            print(f"::error title={label} sustained cycle regression::{name}: "
                  f"{cur_val:.4g} {unit} is {d_base:+.1%} past the committed baseline, "
                  f"and the previous run was already {d_prev:+.1%} past it (threshold "
                  f"+{THRESHOLD:.0%} twice in a row). Fix the regression or "
                  "deliberately update bench/baselines/.")
            record(name, base_val, prev_val, cur_val, "SUSTAINED REGRESSION")
        elif regressed_base:
            print(line + " regressed vs baseline (first occurrence — warning)")
            print(f"::warning title={label} cycle regression::{name}: "
                  f"{cur_val:.4g} {unit} is {d_base:+.1%} past the committed baseline; "
                  "fails the next run if it persists.")
            record(name, base_val, prev_val, cur_val, "regressed (warning)")
        else:
            print(line + " ok")
            record(name, base_val, prev_val, cur_val, "ok")
    return sustained


def fmt_val(val, unit):
    if val is None:
        return "—"
    suffix = f" {unit}" if unit else ""
    return f"{val:.4g}{suffix}"


def write_report(path, report_rows, failures):
    """Render the collected comparison rows as a Markdown trend report."""
    lines = ["# Perf trend report", ""]
    lines.append("Cycle-derived metrics vs the committed baseline "
                 "(`bench/baselines/`) and the previous successful run's "
                 f"artifact. Gating threshold: +{THRESHOLD:.0%} past baseline, "
                 "sustained over two consecutive runs.")
    lines.append("")
    verdict = (f"**{failures} sustained regression(s) — job failed.**"
               if failures else "**No sustained regressions.**")
    lines.append(verdict)

    by_label = {}
    for row in report_rows:
        by_label.setdefault(row["label"], []).append(row)
    for label, rows in by_label.items():
        kind = "gated" if rows[0]["gating"] else "advisory"
        lines += ["", f"## {label} ({kind})", "",
                  "| metric | baseline | previous run | current | Δ vs baseline | verdict |",
                  "|---|---|---|---|---|---|"]
        for r in rows:
            delta = ("—" if r["baseline"] is None
                     else f"{ratio(r['current'], r['baseline']):+.1%}")
            lines.append(
                f"| {r['name']} | {fmt_val(r['baseline'], r['unit'])} "
                f"| {fmt_val(r['previous'], r['unit'])} "
                f"| {fmt_val(r['current'], r['unit'])} | {delta} | {r['verdict']} |")
    if not report_rows:
        lines += ["", "No bench rows were available to compare."]
    lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    print(f"perf-trend: wrote Markdown report to {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True, help="committed baseline dir")
    ap.add_argument("--current", required=True, help="dir with this run's bench JSONs")
    ap.add_argument("--previous", default=None,
                    help="dir with the previous run's artifacts (optional)")
    ap.add_argument("--report", default=None,
                    help="also write a Markdown trend report to this path")
    args = ap.parse_args()

    failures = 0
    report_rows = [] if args.report else None
    for gating, group in ((True, GATED), (False, ADVISORY)):
        for label, fname, extract, unit in group:
            base_doc = load(os.path.join(args.baseline, fname))
            cur_doc = load(os.path.join(args.current, fname))
            prev_doc = load(os.path.join(args.previous, fname)) if args.previous else None
            failures += check_file(label, extract, unit, base_doc, prev_doc, cur_doc,
                                   gating, report_rows)

    if args.report:
        write_report(args.report, report_rows, failures)
    if failures:
        print(f"perf-trend: {failures} sustained regression(s) — failing the job")
        return 1
    print("perf-trend: no sustained regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
