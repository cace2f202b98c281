#!/usr/bin/env python3
"""Gate benchmark JSON files against checked-in baselines.

Each BENCH_<name>.json produced by a bench binary is compared against
bench/baselines/BENCH_<name>.json, which lists gates over dotted metric
paths (array indices as [i]):

    {"path": "fig4_grid.bitwise_equal_to_cold", "equals": true}
        exact equality — a flipped correctness gate fails the build
    {"path": "fig4_grid.speedup", "min": 3.0}            hard floor
    {"path": "fig4_grid.unique_solves", "max": 102}      hard ceiling
    {"path": "min_speedup_1thread", "baseline": 4.5, "tolerance": 0.2}
        regression gate: current >= baseline * (1 - tolerance); pass
        "direction": "lower" for lower-is-better metrics
    {"path": "...", "ratio_of": ["num.path", "den.path"], "baseline": ...}
        same, over a quotient of two metrics (machine-robust speedups)
    {"path": "avx2_gemm_speedup", "min": 2.0, "when": "avx2_supported"}
        conditional gate: only checked when the "when" path resolves truthy
        in the *current* blob — skipped (not failed) otherwise. Used for
        per-backend rows that depend on host capabilities, e.g. the avx2
        kernels on a CPU without AVX2.

Exit status 0 when every gate in every file passes, 1 otherwise.

With --trajectory <csv> it reads a committed wall-clock trajectory instead
(bench/trajectory/perfbench.csv) and gates nothing. Each row is one
(commit, workload, metric) summary over repeated runs:

    commit,workload,metric,unit,median,q1,q3,runs,seconds

`commit` is a short git hash, or `<parent-hash>+<name>` for a change
measured before it had a commit of its own; commits appear in file order,
oldest first. For each (workload, metric) it prints the latest commit's
median, the delta against the previous commit's row, and whether that delta
exceeds the previous row's interquartile range (q3 - q1). Exit status 1
only when the file is malformed.
"""

import argparse
import csv
import json
import re
import sys
from pathlib import Path

_INDEX = re.compile(r"^(.*)\[(\d+)\]$")


def lookup(blob, path):
    """Resolve a dotted path with optional [i] array indices."""
    value = blob
    for part in path.split("."):
        match = _INDEX.match(part)
        if match:
            value = value[match.group(1)][int(match.group(2))]
        else:
            value = value[part]
    return value


def fmt_value(value):
    """Compact cell rendering: short floats, bare bools, repr for the rest."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def check_gate(blob, gate):
    """Return (passed, message, measured, constraint) for one gate."""
    if "ratio_of" in gate:
        num_path, den_path = gate["ratio_of"]
        current = lookup(blob, num_path) / lookup(blob, den_path)
        label = f"{num_path} / {den_path}"
    else:
        current = lookup(blob, gate["path"])
        label = gate["path"]

    if "equals" in gate:
        expected = gate["equals"]
        ok = current == expected
        return (ok, f"{label} == {expected!r} (got {current!r})",
                current, f"== {fmt_value(expected)}")
    if "min" in gate:
        ok = current >= gate["min"]
        return (ok, f"{label} >= {gate['min']} (got {current})",
                current, f">= {fmt_value(gate['min'])}")
    if "max" in gate:
        ok = current <= gate["max"]
        return (ok, f"{label} <= {gate['max']} (got {current})",
                current, f"<= {fmt_value(gate['max'])}")
    if "baseline" in gate:
        baseline = gate["baseline"]
        tolerance = gate.get("tolerance", 0.2)
        if gate.get("direction", "higher") == "lower":
            bound = baseline * (1.0 + tolerance)
            ok = current <= bound
            return (ok, (f"{label} <= {bound:g} "
                         f"(baseline {baseline:g} +{tolerance:.0%}, got {current})"),
                    current, f"<= {bound:g} (base {baseline:g})")
        bound = baseline * (1.0 - tolerance)
        ok = current >= bound
        return (ok, (f"{label} >= {bound:g} "
                     f"(baseline {baseline:g} -{tolerance:.0%}, got {current})"),
                current, f">= {bound:g} (base {baseline:g})")
    raise ValueError(f"gate has no comparison: {gate}")


def gate_label(gate):
    if "path" in gate:
        return gate["path"]
    if "ratio_of" in gate:
        return " / ".join(gate["ratio_of"])
    return str(gate)


def render_table(rows, header=("gate", "measured", "constraint", "verdict")):
    """Aligned table under `header`; by default the per-gate summary."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in (header, tuple("-" * w for w in widths)) + tuple(rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def compare(current_path, baseline_path):
    """Check every gate; returns (all_passed, summary_rows)."""
    with open(current_path) as f:
        blob = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    if blob.get("bench") != baseline.get("bench"):
        print(f"FAIL {current_path}: bench name {blob.get('bench')!r} "
              f"!= baseline {baseline.get('bench')!r}")
        return False, [(str(current_path), "-", "bench name match", "FAIL")]

    failures = 0
    rows = []
    for gate in baseline["gates"]:
        if "when" in gate:
            try:
                condition = lookup(blob, gate["when"])
            except (KeyError, IndexError, TypeError):
                condition = False
            if not condition:
                print(f"  skip {gate.get('path', gate)} "
                      f"(condition {gate['when']!r} not met)")
                rows.append((gate_label(gate), "-",
                             f"when {gate['when']}", "skip"))
                continue
        try:
            ok, message, measured, constraint = check_gate(blob, gate)
        except (KeyError, IndexError, TypeError) as error:
            ok, message = False, f"{gate.get('path', gate)}: unresolvable ({error!r})"
            measured, constraint = None, "unresolvable"
        status = "ok  " if ok else "FAIL"
        print(f"  {status} {message}")
        rows.append((gate_label(gate), fmt_value(measured), constraint,
                     "pass" if ok else "FAIL"))
        failures += 0 if ok else 1
    verdict = "pass" if failures == 0 else f"{failures} gate(s) failed"
    print(f"{current_path}: {verdict}")
    return failures == 0, rows


TRAJECTORY_COLUMNS = ["commit", "workload", "metric", "unit", "median", "q1",
                      "q3", "runs", "seconds"]


def read_trajectory(path):
    """Parse and validate a trajectory CSV; raises ValueError when malformed."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != TRAJECTORY_COLUMNS:
            raise ValueError(f"header {header} != {TRAJECTORY_COLUMNS}")
        rows, seen, units = [], set(), {}
        for line, cells in enumerate(reader, start=2):
            if len(cells) != len(TRAJECTORY_COLUMNS):
                raise ValueError(f"line {line}: {len(cells)} cells, "
                                 f"expected {len(TRAJECTORY_COLUMNS)}")
            row = dict(zip(TRAJECTORY_COLUMNS, cells))
            try:
                for key in ("median", "q1", "q3", "seconds"):
                    row[key] = float(row[key])
                row["runs"] = int(row["runs"])
            except ValueError as error:
                raise ValueError(f"line {line}: {error}") from None
            if not all(row[key] for key in ("commit", "workload", "metric", "unit")):
                raise ValueError(f"line {line}: empty name cell")
            if not row["q1"] <= row["median"] <= row["q3"]:
                raise ValueError(f"line {line}: median outside [q1, q3]")
            if row["runs"] < 1 or row["seconds"] <= 0:
                raise ValueError(f"line {line}: runs and seconds must be positive")
            key = (row["commit"], row["workload"], row["metric"])
            if key in seen:
                raise ValueError(f"line {line}: duplicate row {key}")
            seen.add(key)
            if units.setdefault(row["metric"], row["unit"]) != row["unit"]:
                raise ValueError(f"line {line}: {row['metric']} changes unit")
            rows.append(row)
    if not rows:
        raise ValueError("no rows")
    return rows


def print_trajectory(rows):
    """Latest median per (workload, metric) with its delta to the previous commit."""
    series = {}
    for row in rows:
        series.setdefault((row["workload"], row["metric"]), []).append(row)
    table = []
    for (workload, metric), history in series.items():
        latest = history[-1]
        cells = [workload, metric, latest["commit"],
                 f"{latest['median']:.6g} {latest['unit']}"]
        if len(history) < 2:
            cells += ["-", "-", "first row"]
        else:
            previous = history[-2]
            delta = latest["median"] - previous["median"]
            iqr = previous["q3"] - previous["q1"]
            share = f" ({delta / previous['median']:+.1%})" if previous["median"] else ""
            cells += [f"{delta:+.6g}{share}", f"{iqr:.6g}",
                      f"{'beyond' if abs(delta) > iqr else 'within'} "
                      f"{previous['commit']}'s IQR"]
        table.append(tuple(cells))
    print(render_table(table, ("workload", "metric", "latest", "median", "delta",
                               "prev IQR", "verdict")))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding baseline BENCH_*.json files")
    parser.add_argument("--trajectory", metavar="CSV",
                        help="print a wall-clock trajectory's latest deltas "
                             "(gates nothing)")
    parser.add_argument("current", nargs="*",
                        help="benchmark JSON files produced by this run")
    args = parser.parse_args(argv)
    if args.trajectory:
        try:
            rows = read_trajectory(args.trajectory)
        except (OSError, ValueError) as error:
            print(f"FAIL {args.trajectory}: {error}")
            return 1
        print_trajectory(rows)
        return 0
    if not args.current:
        parser.error("give benchmark JSON files, or --trajectory CSV")

    all_ok = True
    summaries = []
    for current in args.current:
        baseline = Path(args.baseline_dir) / Path(current).name
        if not baseline.exists():
            print(f"FAIL {current}: no baseline at {baseline}")
            all_ok = False
            summaries.append((current, [(str(current), "-",
                                         f"baseline at {baseline}", "FAIL")]))
            continue
        print(f"== {current} vs {baseline}")
        ok, rows = compare(current, baseline)
        all_ok &= ok
        summaries.append((current, rows))

    # Per-gate summary table on every run — pass or fail — so a CI log (or a
    # human skimming one) shows each gate's measured value and margin at a
    # glance without scrolling through the per-file checks.
    print("\n== summary")
    for current, rows in summaries:
        print(f"-- {current}")
        print(render_table(rows))
    print(f"overall: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
