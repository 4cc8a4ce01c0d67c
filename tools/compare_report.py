#!/usr/bin/env python3
"""Differential run reports: diff two canary report JSONs with tolerance
bands and emit a pass/fail verdict for CI.

Both inputs must carry the same schema tag (canary.run_report/v3, or any
of the bench schemas — the tool diffs numeric leaves generically). Every
numeric leaf reachable through nested objects is compared:

    scalars.*, metrics.counters.*, metrics.gauges.*,
    metrics.histograms.<name>.{count,mean,min,max,p50,p95,p99},
    breakdown.recoveries.*, breakdown.*.components.*,
    tail.groups.<metric>.p<P>.* (percentile entries indexed by target),
    timeseries.{window_s,windows,evicted},
    timeseries.counters.<stream>.t<start>,
    timeseries.quantiles.<stream>.t<start>.{count,p50,p99},
    timeseries.levels.<stream>.t<start> (rows keyed by window start),
    obs.*, ...

Other arrays (the `series` tables) are not diffed.
Identity-like leaves (trace/function ids, seeds) are ignored by
default because they legitimately differ between runs.

A metric passes when |candidate - baseline| <= tol * max(|baseline|,
abs_floor). The default band is --default-tol (0.10); per-metric bands
are given as repeatable `--tol GLOB=FRAC` options matched against the
flattened path, first match wins, e.g.:

    compare_report.py --tol 'metrics.histograms.*.p99=0.05' \
        --tol 'scalars.cost_usd_mean=0.02' base.json candidate.json

Metrics present on only one side are reported: missing-in-candidate is a
failure (a section disappeared), new-in-candidate is informational.

Exit status: 0 when every compared metric is within its band, 1 on any
out-of-band metric / missing metric / schema mismatch, 2 on usage
errors. Stdlib only.
"""

import fnmatch
import json
import sys

# Leaves that are expected to differ between otherwise-equivalent runs:
# identity handles and seeds. Matched with fnmatch against the flattened
# dotted path.
DEFAULT_IGNORE = [
    "*.trace",
    "*.function",
    "params.seed",
    "name",
    "schema",
]


# Path suffix of each value after the window start, per timeseries row
# kind: [t_s, value] rows, and [t_s, count, p50, p99] quantile rows.
ROW_SUFFIXES = {"counters": ("",), "levels": ("",),
                "quantiles": (".count", ".p50", ".p99")}


def flatten(node, path="", out=None):
    """Collect numeric leaves of nested dicts into {dotted path: value}.

    Lists are skipped except for tail percentile entries, which are
    re-keyed by their target percentile, and timeseries rows, which are
    re-keyed by their window start, so the two reports line up even if
    a list's order or a sparse stream's row count differed.
    """
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else str(key)
            if key == "percentiles" and isinstance(value, list) and \
                    all(isinstance(e, dict) and "p" in e for e in value):
                for entry in value:
                    flatten(entry, f"{path}.p{entry['p']:g}", out)
                continue
            if path == "timeseries" and key in ROW_SUFFIXES and \
                    isinstance(value, dict):
                for stream, rows in value.items():
                    for start, *values in rows:
                        for suffix, v in zip(ROW_SUFFIXES[key], values):
                            out[f"{sub}.{stream}.t{start:g}{suffix}"] = \
                                float(v)
                continue
            flatten(value, sub, out)
    elif isinstance(node, bool):
        out[path] = 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        out[path] = float(node)
    return out


def parse_tol(spec):
    if "=" not in spec:
        raise ValueError(f"--tol expects GLOB=FRAC, got {spec!r}")
    pattern, _, frac = spec.rpartition("=")
    return pattern, float(frac)


def band_for(path, bands, default_tol):
    for pattern, tol in bands:
        if fnmatch.fnmatchcase(path, pattern):
            return tol
    return default_tol


def ignored(path, ignore):
    return any(fnmatch.fnmatchcase(path, pat) for pat in ignore)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(baseline, candidate, bands, default_tol, abs_floor, ignore):
    """Returns (failures, compared, new_keys) lists."""
    base = {k: v for k, v in flatten(baseline).items()
            if not ignored(k, ignore)}
    cand = {k: v for k, v in flatten(candidate).items()
            if not ignored(k, ignore)}

    failures = []
    compared = 0
    for key in sorted(base):
        if key not in cand:
            failures.append((key, base[key], None, None,
                             "missing in candidate"))
            continue
        compared += 1
        b, c = base[key], cand[key]
        tol = band_for(key, bands, default_tol)
        allowed = tol * max(abs(b), abs_floor)
        if abs(c - b) > allowed:
            rel = (c - b) / b if b else float("inf")
            failures.append((key, b, c, tol,
                             f"delta {c - b:+.6g} ({rel:+.1%}) exceeds "
                             f"band {tol:.0%}"))
    new_keys = sorted(set(cand) - set(base))
    return failures, compared, new_keys


def main(argv):
    bands = []
    default_tol = 0.10
    abs_floor = 1e-9
    ignore = list(DEFAULT_IGNORE)
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--tol":
            if i + 1 >= len(argv):
                print("--tol requires GLOB=FRAC", file=sys.stderr)
                return 2
            try:
                bands.append(parse_tol(argv[i + 1]))
            except ValueError as err:
                print(err, file=sys.stderr)
                return 2
            i += 2
        elif arg == "--default-tol":
            if i + 1 >= len(argv):
                print("--default-tol requires a number", file=sys.stderr)
                return 2
            default_tol = float(argv[i + 1])
            i += 2
        elif arg == "--abs-floor":
            if i + 1 >= len(argv):
                print("--abs-floor requires a number", file=sys.stderr)
                return 2
            abs_floor = float(argv[i + 1])
            i += 2
        elif arg == "--ignore":
            if i + 1 >= len(argv):
                print("--ignore requires a glob", file=sys.stderr)
                return 2
            ignore.append(argv[i + 1])
            i += 2
        else:
            paths.append(arg)
            i += 1
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_path, cand_path = paths

    try:
        baseline = load(base_path)
        candidate = load(cand_path)
    except (OSError, json.JSONDecodeError) as err:
        print(f"unreadable input: {err}", file=sys.stderr)
        return 1

    if baseline.get("schema") != candidate.get("schema"):
        print(f"FAIL: schema mismatch: {base_path} is "
              f"{baseline.get('schema')!r}, {cand_path} is "
              f"{candidate.get('schema')!r}")
        return 1

    failures, compared, new_keys = compare(
        baseline, candidate, bands, default_tol, abs_floor, ignore)

    for key in new_keys:
        print(f"note: {key}: only in candidate")
    for key, b, c, tol, reason in failures:
        if c is None:
            print(f"FAIL {key}: baseline {b:.6g}, {reason}")
        else:
            print(f"FAIL {key}: baseline {b:.6g}, candidate {c:.6g}: "
                  f"{reason}")

    if failures:
        print(f"FAIL: {len(failures)} of {compared + len(failures)} "
              f"metric(s) out of band "
              f"({base_path} vs {cand_path})")
        return 1
    print(f"PASS: {compared} metric(s) within band "
          f"({len(new_keys)} new), {base_path} vs {cand_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
