#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts and flag perf regressions.

The bench harness (bench_micro, bench_serve) writes flat JSON arrays of
records keyed by (bench, algo, dataset, n, threads, memory_bytes). This
tool joins two such artifacts on that key, prints a per-config delta table,
and exits non-zero when the NEW run regresses against the BASE run:

  - wall-clock regression: wall_seconds grows by more than --wall-tol
    (default 15%) on any config;
  - I/O regression: io_blocks grows at all on any config (block counts are
    deterministic per config in the MemEnv, so ANY growth is a real
    algorithmic regression, not noise);
  - stale baseline (--io-only only): io_blocks falls below the committed
    baseline on any config. The improvement is real, but a baseline left
    above it would let a later regression back up to the old count pass
    silently, so the baseline must be regenerated with the change.

Wall time is machine-dependent, so CI compares committed baselines with
--io-only (block counts only); the wall check is for same-machine A/B runs.
Every record carries a `machine` fingerprint (nproc and CPU model); unless
both artifacts carry one and the two are equal, the wall and p99 checks are
skipped with a note saying why. See docs/BENCHMARKING.md for the workflow.

A second mode renders the perf trajectory: --plot draws io_blocks per config
across any number of artifacts (committed baselines, fresh CI runs — in the
order given) as a standalone SVG line chart, uploaded as a CI artifact. The
plot shows block I/O only: wall time is machine-dependent, so a trajectory
mixing runners would chart noise.

Usage:
  compare_bench.py BASE.json NEW.json [--wall-tol=0.15] [--io-only]
  compare_bench.py --plot=TRAJECTORY.svg FIRST.json [MORE.json ...]

Exit codes: 0 = no regression, 1 = regression or stale baseline found,
2 = usage/input error.
"""

import argparse
import json
import sys

KEY_FIELDS = ("bench", "algo", "dataset", "n", "threads", "memory_bytes")

# Categorical series colors (validated palette, fixed slot order — see the
# chart-color notes in docs/BENCHMARKING.md): identity is assigned by config
# position and never re-cycled; past eight series the tail is reported as
# unplotted rather than silently dropped or painted with invented hues.
SERIES_COLORS = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e4e3df"


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"cannot read {path}: {e}\n")
        sys.exit(2)
    if not isinstance(records, list):
        sys.stderr.write(f"{path}: expected a JSON array of bench records\n")
        sys.exit(2)
    keyed = {}
    for r in records:
        try:
            key = tuple(r[k] for k in KEY_FIELDS)
        except (KeyError, TypeError):
            sys.stderr.write(f"{path}: record missing key fields: {r}\n")
            sys.exit(2)
        if key in keyed:
            sys.stderr.write(f"{path}: duplicate config {key}\n")
            sys.exit(2)
        keyed[key] = r
    return keyed


def machine_of(records):
    """The artifact's machine fingerprint, or None if any record lacks one
    or the records disagree."""
    machines = {r.get("machine") for r in records.values()}
    if len(machines) != 1 or None in machines:
        return None
    return machines.pop()


def fmt_key(key):
    bench, algo, dataset, n, threads, memory = key
    return f"{bench}/{algo} {dataset} n={n} t={threads} M={memory >> 10}KB"


def nice_ticks(hi, count=5):
    """Round tick positions 0..~hi (hi > 0)."""
    raw = hi / count
    mag = 10 ** max(0, len(str(int(raw))) - 1)
    step = max(1, int((raw + mag - 1) // mag) * mag)
    ticks = list(range(0, int(hi) + step, step))
    return ticks


def svg_escape(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_plot(path, artifacts):
    """Writes an SVG trajectory of io_blocks per config across artifacts.

    `artifacts` is an ordered list of (label, {key: record}). One line per
    config, colored by fixed slot order; a config absent from an artifact
    simply has no point there (the line bridges the gap is NOT implied —
    segments are only drawn between consecutive present points).
    """
    keys = []
    for _, records in artifacts:
        for key in records:
            if key not in keys:
                keys.append(key)
    keys.sort()
    plotted, unplotted = keys[:len(SERIES_COLORS)], keys[len(SERIES_COLORS):]

    width, height = 960, 420
    margin_l, margin_r, margin_t, margin_b = 70, 20, 48, 70
    legend_h = 18 * len(plotted) + (16 if unplotted else 0)
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    height += legend_h

    max_io = 1
    for _, records in artifacts:
        for key in records:
            max_io = max(max_io, records[key]["io_blocks"])
    ticks = nice_ticks(max_io * 1.05)
    y_hi = max(ticks[-1], 1)

    def x_of(i):
        if len(artifacts) == 1:
            return margin_l + plot_w / 2
        return margin_l + plot_w * i / (len(artifacts) - 1)

    def y_of(v):
        return margin_t + plot_h * (1 - v / y_hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="system-ui, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        f'<text x="{margin_l}" y="24" font-size="15" font-weight="600" '
        f'fill="{TEXT_PRIMARY}">Block I/O per bench config across '
        f'artifacts</text>',
        f'<text x="{margin_l}" y="40" font-size="11" '
        f'fill="{TEXT_SECONDARY}">io_blocks only — wall time is '
        f'machine-dependent and excluded</text>',
    ]
    # Recessive horizontal grid + y labels.
    for t in ticks:
        y = y_of(t)
        parts.append(f'<line x1="{margin_l}" y1="{y:.1f}" '
                     f'x2="{margin_l + plot_w}" y2="{y:.1f}" '
                     f'stroke="{GRID}" stroke-width="1"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" '
                     f'font-size="11" text-anchor="end" '
                     f'fill="{TEXT_SECONDARY}">{t}</text>')
    # X labels: artifact names, in given order.
    for i, (label, _) in enumerate(artifacts):
        parts.append(f'<text x="{x_of(i):.1f}" y="{margin_t + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle" '
                     f'fill="{TEXT_SECONDARY}">{svg_escape(label)}</text>')

    for s, key in enumerate(plotted):
        color = SERIES_COLORS[s]
        points = [(i, records[key]["io_blocks"])
                  for i, (_, records) in enumerate(artifacts)
                  if key in records]
        # Segments only between consecutive artifacts both carrying the
        # config; isolated points still get a marker.
        for (i0, v0), (i1, v1) in zip(points, points[1:]):
            if i1 == i0 + 1:
                parts.append(f'<line x1="{x_of(i0):.1f}" y1="{y_of(v0):.1f}" '
                             f'x2="{x_of(i1):.1f}" y2="{y_of(v1):.1f}" '
                             f'stroke="{color}" stroke-width="2"/>')
        for i, v in points:
            parts.append(f'<circle cx="{x_of(i):.1f}" cy="{y_of(v):.1f}" '
                         f'r="4" fill="{color}" stroke="{SURFACE}" '
                         f'stroke-width="2">'
                         f'<title>{svg_escape(fmt_key(key))}\n'
                         f'{svg_escape(artifacts[i][0])}: {v} blocks</title>'
                         f'</circle>')

    # Legend: swatch + config label in neutral ink, fixed order.
    legend_y = margin_t + plot_h + 40
    for s, key in enumerate(plotted):
        y = legend_y + 18 * s
        parts.append(f'<rect x="{margin_l}" y="{y - 9}" width="12" '
                     f'height="12" rx="3" fill="{SERIES_COLORS[s]}"/>')
        parts.append(f'<text x="{margin_l + 18}" y="{y + 1}" font-size="11" '
                     f'fill="{TEXT_PRIMARY}">{svg_escape(fmt_key(key))}'
                     f'</text>')
    if unplotted:
        y = legend_y + 18 * len(plotted)
        parts.append(f'<text x="{margin_l}" y="{y + 1}" font-size="11" '
                     f'fill="{TEXT_SECONDARY}">+{len(unplotted)} more '
                     f'config(s) not plotted (8-series cap); see the JSON '
                     f'artifacts</text>')
    parts.append("</svg>")

    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(parts) + "\n")
    except OSError as e:
        sys.stderr.write(f"cannot write {path}: {e}\n")
        sys.exit(2)
    print(f"wrote trajectory of {len(plotted)} config(s) over "
          f"{len(artifacts)} artifact(s) to {path}")
    if unplotted:
        for key in unplotted:
            print(f"note: not plotted (series cap): {fmt_key(key)}")


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts, fail on regressions; "
                    "or --plot an io_blocks trajectory across many")
    parser.add_argument("artifacts", nargs="+",
                        help="bench artifacts: BASE NEW for the diff mode, "
                             "any number (in trajectory order) with --plot")
    parser.add_argument("--wall-tol", type=float, default=0.15,
                        help="allowed relative wall-seconds growth "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--io-only", action="store_true",
                        help="check only I/O block counts (machine-portable)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline config is absent "
                             "from the new artifact")
    parser.add_argument("--plot", metavar="SVG",
                        help="render the artifacts' io_blocks trajectory to "
                             "this SVG instead of diffing")
    args = parser.parse_args()

    if args.plot:
        labels = []
        for path in args.artifacts:
            name = path.rsplit("/", 1)[-1]
            labels.append(name[:-5] if name.endswith(".json") else name)
        render_plot(args.plot,
                    [(label, load_records(path))
                     for label, path in zip(labels, args.artifacts)])
        sys.exit(0)

    if len(args.artifacts) != 2:
        sys.stderr.write("diff mode takes exactly two artifacts "
                         "(BASE NEW); use --plot for trajectories\n")
        sys.exit(2)
    base = load_records(args.artifacts[0])
    new = load_records(args.artifacts[1])
    common = [k for k in base if k in new]
    if not common:
        sys.stderr.write("no common configs between the two artifacts\n")
        sys.exit(2)

    # Wall and p99 are compared only between runs on the same machine.
    check_timing = not args.io_only
    if check_timing:
        machine_base, machine_new = machine_of(base), machine_of(new)
        if machine_base is None or machine_new is None:
            check_timing = False
            print("note: skipping wall and p99 checks: "
                  + ("the base" if machine_base is None else "the new")
                  + " artifact has no single machine fingerprint")
        elif machine_base != machine_new:
            check_timing = False
            print(f"note: skipping wall and p99 checks: machines differ "
                  f"({machine_base!r} vs {machine_new!r})")

    header = (f"{'config':<58}{'wall base':>12}{'wall new':>12}{'Δwall':>9}"
              f"{'io base':>12}{'io new':>12}{'Δio':>9}")
    print(header)
    print("-" * len(header))

    regressions = []
    stale = []
    for key in sorted(common):
        b, n = base[key], new[key]
        wall_b, wall_n = b["wall_seconds"], n["wall_seconds"]
        io_b, io_n = b["io_blocks"], n["io_blocks"]
        dwall = (wall_n - wall_b) / wall_b if wall_b > 0 else 0.0
        dio = (io_n - io_b) / io_b if io_b > 0 else (1.0 if io_n > io_b else 0.0)
        print(f"{fmt_key(key):<58}{wall_b:>12.4f}{wall_n:>12.4f}"
              f"{dwall:>+8.1%} {io_b:>11}{io_n:>12}{dio:>+8.1%} ")
        if io_n > io_b:
            regressions.append(f"I/O regression on {fmt_key(key)}: "
                               f"{io_b} -> {io_n} blocks")
        elif args.io_only and io_n < io_b:
            stale.append(f"{fmt_key(key)}: {io_b} -> {io_n} blocks fell "
                         f"below the committed baseline; regenerate it: "
                         f"./build/bench/{key[0]} --quick "
                         f"--json={args.artifacts[0]}")
        # Sub-millisecond configs (e.g. warm cache rounds) are pure noise on
        # the wall axis; the I/O check still covers them.
        if check_timing and wall_b > 1e-3 and dwall > args.wall_tol:
            regressions.append(f"wall regression on {fmt_key(key)}: "
                               f"{wall_b:.4f}s -> {wall_n:.4f}s "
                               f"({dwall:+.1%} > {args.wall_tol:.0%})")
        # Latency records (bench_workload) also carry tail percentiles;
        # p99 is machine-dependent like wall time, so the same gate applies
        # and the same tolerance governs.
        p99_b, p99_n = b.get("p99_ms", 0.0), n.get("p99_ms", 0.0)
        if check_timing and p99_b > 0.0 and p99_n > 0.0:
            dp99 = (p99_n - p99_b) / p99_b
            if dp99 > args.wall_tol:
                regressions.append(f"p99 latency regression on "
                                   f"{fmt_key(key)}: {p99_b:.3f}ms -> "
                                   f"{p99_n:.3f}ms "
                                   f"({dp99:+.1%} > {args.wall_tol:.0%})")

    only_base = sorted(k for k in base if k not in new)
    only_new = sorted(k for k in new if k not in base)
    for k in only_base:
        # A vanished config means lost coverage: the regression it would
        # have caught goes unflagged, so treat the loss itself as a failure
        # (pass --allow-missing for intentional sweeps).
        if args.allow_missing:
            print(f"note: config only in base (dropped?): {fmt_key(k)}")
        else:
            regressions.append(f"config dropped from new artifact: {fmt_key(k)}")
    for k in only_new:
        print(f"note: config only in new (added): {fmt_key(k)}")

    if regressions or stale:
        print()
        for r in regressions:
            print(f"REGRESSION: {r}")
        for r in stale:
            print(f"STALE BASELINE: {r}")
        sys.exit(1)
    print(f"\nno regressions across {len(common)} config(s)"
          + ("" if check_timing else " (I/O only)"))
    sys.exit(0)


if __name__ == "__main__":
    main()
