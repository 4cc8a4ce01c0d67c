#!/usr/bin/env python3
"""Validate canary report JSON files, dispatched on the `schema` tag.

canary.run_report/v3 — the machine-readable run reports emitted by the
figure benches, the experiment CLI and harness::make_report. Verifies the
presence and types of every section, that the breakdown's component maps
carry exactly the known critical-path components, and that the recovery
components sum to the recovery window within tolerance (1 sim-ms per
recovery, the acceptance bound of the decomposition). A report of a run
with attribution on carries both `tail` (per group and target
percentile, the nearest-rank completion read off the causal log, whose
component partition must sum to its measured latency within 1 sim-ms)
and `timeseries` (fixed-window rollups whose row counts must match the
declared window count); any other report carries neither.

canary.bench/v2 — the one envelope of the bench-family reports
(scale_stress, chaos_campaign, traffic_curves, fig09_hedging,
fig13_partitions, realexec_validate):

    {"schema", "name", "params": {"quick", ...},
     "checks": {"violations": [<string>...]},
     "gated": {<name>: {"value", "better": "lower"|"higher"[, "band"]}},
     ...per-bench payload}

Each bench checks its own payload's identities, bounds and non-vacuity
conditions and lists every failure in `checks.violations`; this tool
checks the envelope's shape and FAILS when that list is non-empty, so a
regression is a red build even if the producing binary's exit status
was lost. With --baseline BASE.json (a committed report of the same
bench), every value gated in the baseline must be present in the report
and no more than 20% worse than the baseline's in the direction its
`better` names. A baseline entry may set its own `band` (a fraction):
`"band": 0` gates a deterministic counter exactly, so any step in the
worse direction fails.

With --calibrate BAND.json (a canary.realexec.baseline/v1 tolerance
file), each scenario of a realexec report has its real/sim ratio per
component gated against the committed band: a component passes if its
ratio lies inside [min_ratio, max_ratio] or the absolute real-sim gap is
below the band's floor_s (absolute floors keep microsecond-scale
components from tripping ratio checks). Any component outside its band
fails the check — the simulator's recovery model has drifted from the
real substrate.

Usage:  check_report.py [--baseline BASE.json] [--calibrate BAND.json] \
            report.json [report2.json ...]

Exits non-zero on the first invalid report. Stdlib only.
"""

import json
import sys

SCHEMA = "canary.run_report/v3"
BENCH_SCHEMA = "canary.bench/v2"
REALEXEC_BASELINE_SCHEMA = "canary.realexec.baseline/v1"
# A gated value may be at most this much worse than its baseline, unless
# the baseline entry names its own band.
GATE_BAND = 0.20
COMPONENTS = [
    "detection",
    "scheduling",
    "launch",
    "init",
    "restore",
    "exec",
    "re_exec",
    "finalize",
]
# Components that only appear in open-loop (traffic-driven) or hedged
# runs; the writers omit them when zero so other reports stay
# byte-identical.
OPTIONAL_COMPONENTS = [
    "queueing",
    "hedging",
]


class Invalid(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Invalid(msg)


def check_number(obj, key, path):
    expect(key in obj, f"{path}: missing '{key}'")
    expect(isinstance(obj[key], (int, float)) and not isinstance(obj[key], bool),
           f"{path}.{key}: expected a number, got {type(obj[key]).__name__}")


def check_components(obj, path):
    expect(isinstance(obj, dict), f"{path}: expected an object")
    keys = set(obj.keys())
    required = set(COMPONENTS)
    allowed = required | set(OPTIONAL_COMPONENTS)
    expect(required <= keys <= allowed,
           f"{path}: component keys {sorted(keys)} not between "
           f"{sorted(required)} and {sorted(allowed)}")
    for key in keys:
        check_number(obj, key, path)
    return sum(obj[key] for key in keys)


def check_health(obj, path):
    expect(isinstance(obj, dict), f"{path}: expected an object")
    check_number(obj, "recorded", path)
    check_number(obj, "dropped", path)
    expect(isinstance(obj.get("truncated"), bool),
           f"{path}.truncated: expected a bool")
    expect((obj["dropped"] > 0) == obj["truncated"],
           f"{path}: truncated flag inconsistent with dropped={obj['dropped']}")
    # Per-EventKind drop accounting is only present when something was
    # dropped, and must sum exactly to the total.
    by_kind = obj.get("dropped_by_kind")
    if by_kind is not None:
        expect(isinstance(by_kind, dict) and by_kind,
               f"{path}.dropped_by_kind: expected a non-empty object")
        expect(obj["dropped"] > 0,
               f"{path}.dropped_by_kind present with dropped=0")
        for kind, count in by_kind.items():
            expect(isinstance(count, int) and count > 0,
                   f"{path}.dropped_by_kind.{kind}: bad count")
        expect(sum(by_kind.values()) == obj["dropped"],
               f"{path}.dropped_by_kind sums to {sum(by_kind.values())}, "
               f"not dropped={obj['dropped']}")


def check_breakdown(breakdown):
    expect(isinstance(breakdown, dict), "breakdown: expected an object")

    recoveries = breakdown.get("recoveries")
    expect(isinstance(recoveries, dict), "breakdown.recoveries: missing")
    check_number(recoveries, "count", "breakdown.recoveries")
    check_number(recoveries, "window_s", "breakdown.recoveries")
    total = check_components(recoveries.get("components"),
                             "breakdown.recoveries.components")
    # Acceptance bound: the components partition the recovery windows.
    tolerance = 1e-3 * max(1, recoveries["count"])
    expect(abs(total - recoveries["window_s"]) <= tolerance,
           f"breakdown.recoveries: components sum {total:.6f} != "
           f"window_s {recoveries['window_s']:.6f} (tolerance {tolerance})")

    end_to_end = breakdown.get("end_to_end")
    expect(isinstance(end_to_end, dict), "breakdown.end_to_end: missing")
    check_components(end_to_end.get("components"),
                     "breakdown.end_to_end.components")

    per_function = breakdown.get("per_function")
    expect(isinstance(per_function, dict), "breakdown.per_function: missing")
    for family, fb in per_function.items():
        path = f"breakdown.per_function.{family}"
        expect(isinstance(fb, dict), f"{path}: expected an object")
        for key in ("functions", "recoveries", "window_s"):
            check_number(fb, key, path)
        check_components(fb.get("components"), f"{path}.components")

    slo = breakdown.get("slo")
    expect(isinstance(slo, dict), "breakdown.slo: missing")
    for key in ("targets", "violations", "violation_ratio"):
        check_number(slo, key, "breakdown.slo")
    expect(slo["violations"] <= slo["targets"],
           "breakdown.slo: more violations than targets")
    breaches = slo.get("breaches_by_component")
    expect(isinstance(breaches, dict),
           "breakdown.slo.breaches_by_component: missing")
    for component, count in breaches.items():
        expect(component in COMPONENTS + OPTIONAL_COMPONENTS,
               f"breakdown.slo.breaches_by_component: unknown '{component}'")
        expect(isinstance(count, int) and count >= 0,
               f"breakdown.slo.breaches_by_component.{component}: bad count")
    expect(sum(breaches.values()) == slo["violations"],
           "breakdown.slo: breaches_by_component does not sum to violations")


def check_tail(tail, path="tail"):
    """Validate a tail-attribution section."""
    expect(isinstance(tail, dict), f"{path}: expected an object")
    groups = tail.get("groups")
    expect(isinstance(groups, dict), f"{path}.groups: expected an object")
    attributions = 0
    for metric, group in groups.items():
        g = f"{path}.groups.{metric}"
        expect(isinstance(group, dict), f"{g}: expected an object")
        percentiles = group.get("percentiles")
        expect(isinstance(percentiles, list) and percentiles,
               f"{g}.percentiles: expected a non-empty array")
        prev_p = -1.0
        for i, a in enumerate(percentiles):
            p = f"{g}.percentiles[{i}]"
            expect(isinstance(a, dict), f"{p}: expected an object")
            for key in ("p", "samples", "latency_s", "trace", "function",
                        "attributed_s"):
                check_number(a, key, p)
            expect(0.0 <= a["p"] <= 100.0, f"{p}.p: out of [0, 100]")
            expect(a["p"] > prev_p, f"{p}.p: percentiles not increasing")
            prev_p = a["p"]
            check_components(a.get("components"), f"{p}.components")
            # Acceptance bound: the exact component partition must sum to
            # the representative's measured latency within one simulated
            # millisecond.
            expect(abs(a["attributed_s"] - a["latency_s"]) <= 1e-3,
                   f"{p}: attributed {a['attributed_s']:.6f} s != "
                   f"latency {a['latency_s']:.6f} s (tolerance 1e-3)")
            attributions += 1
    return len(groups), attributions


def check_timeseries(ts, path="timeseries"):
    """Validate a windowed-rollup section."""
    expect(isinstance(ts, dict), f"{path}: expected an object")
    check_number(ts, "window_s", path)
    expect(ts["window_s"] > 0, f"{path}.window_s: must be positive")
    check_number(ts, "windows", path)
    check_number(ts, "evicted", path)
    expect(ts["evicted"] >= 0, f"{path}.evicted: negative")
    windows = ts["windows"]

    counters = ts.get("counters")
    expect(isinstance(counters, dict), f"{path}.counters: expected an object")
    for name, rows in counters.items():
        p = f"{path}.counters.{name}"
        expect(isinstance(rows, list) and len(rows) == windows,
               f"{p}: expected {windows} rows, got "
               f"{len(rows) if isinstance(rows, list) else type(rows)}")
        prev_t = -1.0
        for row in rows:
            expect(isinstance(row, list) and len(row) == 2,
                   f"{p}: rows must be [t_s, value] pairs")
            expect(row[0] > prev_t, f"{p}: window starts not increasing")
            prev_t = row[0]

    quantiles = ts.get("quantiles")
    expect(isinstance(quantiles, dict), f"{path}.quantiles: expected an object")
    for name, rows in quantiles.items():
        p = f"{path}.quantiles.{name}"
        expect(isinstance(rows, list) and len(rows) == windows,
               f"{p}: expected {windows} rows")
        for row in rows:
            expect(isinstance(row, list) and len(row) == 4,
                   f"{p}: rows must be [t_s, count, p50, p99]")
            if row[1] > 0:
                expect(row[3] >= row[2],
                       f"{p}: p99 {row[3]} < p50 {row[2]} at t={row[0]}")

    levels = ts.get("levels")
    expect(isinstance(levels, dict), f"{path}.levels: expected an object")
    for name, rows in levels.items():
        p = f"{path}.levels.{name}"
        expect(isinstance(rows, list), f"{p}: expected an array")
        expect(len(rows) <= windows, f"{p}: more rows than windows")
        for row in rows:
            expect(isinstance(row, list) and len(row) == 2,
                   f"{p}: rows must be [t_s, value] pairs")
    return len(counters) + len(quantiles) + len(levels)


def check_report(report, path):
    expect(isinstance(report, dict), "top level: expected an object")
    schema = report.get("schema")
    expect(schema == SCHEMA, f"schema: expected '{SCHEMA}', got {schema!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    for section in ("params", "scalars"):
        expect(isinstance(report.get(section), dict),
               f"{section}: expected an object")

    metrics = report.get("metrics")
    expect(isinstance(metrics, dict), "metrics: expected an object")
    for sub in ("counters", "gauges", "histograms"):
        expect(isinstance(metrics.get(sub), dict),
               f"metrics.{sub}: expected an object")
    for name, hist in metrics["histograms"].items():
        for key in ("count", "mean", "min", "max", "p50", "p95", "p99"):
            check_number(hist, key, f"metrics.histograms.{name}")

    check_breakdown(report.get("breakdown"))

    obs = report.get("obs")
    expect(isinstance(obs, dict), "obs: expected an object")
    check_health(obs.get("spans"), "obs.spans")
    check_health(obs.get("events"), "obs.events")

    # The attribution switch writes both sections or neither: one without
    # the other means the writer's gating broke.
    tail_stats = None
    ts_streams = None
    expect(("tail" in report) == ("timeseries" in report),
           "report carries only one of the tail and timeseries sections")
    if "tail" in report:
        tail_stats = check_tail(report["tail"])
        ts_streams = check_timeseries(report["timeseries"])

    series = report.get("series")
    expect(isinstance(series, list), "series: expected an array")
    for i, s in enumerate(series):
        expect(isinstance(s, dict) and isinstance(s.get("name"), str),
               f"series[{i}]: expected an object with a name")
        columns = s.get("columns")
        expect(isinstance(columns, list), f"series[{i}].columns: missing")
        for j, row in enumerate(s.get("rows", [])):
            expect(isinstance(row, list) and len(row) == len(columns),
                   f"series[{i}].rows[{j}]: width != {len(columns)} columns")

    claims = report.get("claims")
    expect(isinstance(claims, list), "claims: expected an array")
    for i, c in enumerate(claims):
        expect(isinstance(c, dict) and isinstance(c.get("claim"), str),
               f"claims[{i}]: expected an object with a claim")
        check_number(c, "measured", f"claims[{i}]")

    extra = ""
    if tail_stats is not None:
        extra += (f", tail: {tail_stats[0]} metric(s) / "
                  f"{tail_stats[1]} attribution(s)")
    if ts_streams is not None:
        extra += f", timeseries: {ts_streams} stream(s)"
    print(f"{path}: OK ({schema}, "
          f"{report['breakdown']['recoveries']['count']} recoveries, "
          f"{len(series)} series, {len(claims)} claims{extra})")


def check_bench_report(report, path):
    """Validate a canary.bench/v2 envelope; fail on any listed violation."""
    expect(report.get("schema") == BENCH_SCHEMA,
           f"schema: expected '{BENCH_SCHEMA}', got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")
    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool),
           "params.quick: expected a bool")

    gated = report.get("gated")
    expect(isinstance(gated, dict), "gated: expected an object")
    for name, entry in gated.items():
        expect(isinstance(entry, dict), f"gated.{name}: expected an object")
        check_number(entry, "value", f"gated.{name}")
        expect(entry.get("better") in ("lower", "higher"),
               f"gated.{name}.better: expected 'lower' or 'higher', "
               f"got {entry.get('better')!r}")
        if "band" in entry:
            check_number(entry, "band", f"gated.{name}")

    checks = report.get("checks")
    expect(isinstance(checks, dict), "checks: expected an object")
    violations = checks.get("violations")
    expect(isinstance(violations, list) and
           all(isinstance(v, str) for v in violations),
           "checks.violations: expected an array of strings")
    expect(not violations,
           f"{report['name']} recorded {len(violations)} self-check "
           f"violation(s):" + "".join(f"\n  - {v}" for v in violations))

    print(f"{path}: OK ({BENCH_SCHEMA} {report['name']}, "
          f"{len(gated)} gated value(s), 0 violations)")


def gate(report, baseline, path):
    """Fail if any value gated in the baseline is missing from the report
    or more than its band (GATE_BAND unless the entry sets `band`) worse
    than the baseline's value."""
    expect(report["name"] == baseline["name"],
           f"report '{report['name']}' gated against a baseline of "
           f"'{baseline['name']}'")
    expect(report["params"]["quick"] == baseline["params"]["quick"],
           "quick mode differs from the baseline's")
    failures = []
    for name, base in baseline["gated"].items():
        if name not in report["gated"]:
            failures.append(f"gated value '{name}' missing vs baseline")
            continue
        value = report["gated"][name]["value"]
        lower = base["better"] == "lower"
        band = base.get("band", GATE_BAND)
        limit = base["value"] * (1.0 + band if lower else 1.0 - band)
        delta = ((value - base["value"]) / base["value"]
                 if base["value"] else 0.0)
        print(f"{path}: {name}: {value:.6g} vs baseline {base['value']:.6g} "
              f"({delta:+.1%}, {base['better']} is better)")
        if (value > limit) if lower else (value < limit):
            failures.append(f"{name} regressed: {value:.6g} vs limit "
                            f"{limit:.6g} (baseline {base['value']:.6g}, "
                            f"band {band:.0%})")
    expect(not failures, "; ".join(failures))


# The components that partition a failure-to-recovery window
# (obs::kRecoveryComponents): every component but first-try execution
# and finalize, as the realexec report's `<component>_s` keys.
REALEXEC_COMPONENTS = [f"{c}_s" for c in COMPONENTS
                       if c not in ("exec", "finalize")]


def calibrate_realexec(report, bands, path):
    """Gate a realexec report's real/sim deltas against a tolerance file.

    For every scenario and every component (plus the whole window), the
    real/sim ratio must lie inside the band's [min_ratio, max_ratio], or
    the absolute gap must be below the band's floor_s. Bands come from
    the baseline's `tolerance` map, keyed by component name with a
    `default` fallback.
    """
    expect(bands.get("schema") == REALEXEC_BASELINE_SCHEMA,
           f"calibration baseline schema: expected "
           f"'{REALEXEC_BASELINE_SCHEMA}', got {bands.get('schema')!r}")
    tolerance = bands.get("tolerance")
    expect(isinstance(tolerance, dict) and "default" in tolerance,
           "calibration baseline: tolerance map with a 'default' band "
           "required")
    for name, band in tolerance.items():
        for key in ("min_ratio", "max_ratio", "floor_s"):
            check_number(band, key, f"tolerance.{name}")
        expect(band["min_ratio"] <= band["max_ratio"],
               f"tolerance.{name}: min_ratio above max_ratio")

    scenarios = report.get("scenarios")
    expect(isinstance(scenarios, list) and scenarios,
           "scenarios: expected a non-empty array to calibrate")
    drifted = []
    checked = 0
    for s in scenarios:
        label = f"{s['kernel']}/{s['policy']}"
        for key in ["window_s"] + REALEXEC_COMPONENTS:
            band = tolerance.get(key.removesuffix("_s"),
                                 tolerance["default"])
            real = s["real"][key]
            sim = s["sim"][key]
            within_floor = abs(real - sim) <= band["floor_s"]
            ratio = real / sim if sim > 1e-9 else None
            within_band = (ratio is not None and
                           band["min_ratio"] <= ratio <= band["max_ratio"])
            checked += 1
            if not (within_floor or within_band):
                shown = f"{ratio:.2f}" if ratio is not None else "inf"
                drifted.append(
                    f"{label} {key}: real {real:.4f}s vs sim {sim:.4f}s "
                    f"(ratio {shown} outside [{band['min_ratio']}, "
                    f"{band['max_ratio']}], gap above floor "
                    f"{band['floor_s']}s)")
    if drifted:
        for line in drifted:
            print(f"{path}: CALIBRATION DRIFT: {line}", file=sys.stderr)
        raise Invalid(f"{len(drifted)} of {checked} component comparisons "
                      f"drifted outside the committed tolerance band")
    print(f"{path}: calibration OK ({checked} component comparisons inside "
          f"the tolerance band)")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    options = {"--baseline": None, "--calibrate": None}
    paths = []
    i = 1
    while i < len(argv):
        if argv[i] in options:
            if i + 1 >= len(argv):
                print(f"{argv[i]} requires a file argument", file=sys.stderr)
                return 2
            options[argv[i]] = argv[i + 1]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    loaded = {}
    for option, path in options.items():
        if path is None:
            continue
        try:
            loaded[option] = load(path)
            if option == "--baseline":
                check_bench_report(loaded[option], path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            return 1
        except Invalid as err:
            print(f"{path}: INVALID: {err}", file=sys.stderr)
            return 1

    for path in paths:
        try:
            report = load(path)
            expect(isinstance(report, dict), "top level: expected an object")
            if report.get("schema") == BENCH_SCHEMA:
                check_bench_report(report, path)
                if "--baseline" in loaded:
                    gate(report, loaded["--baseline"], path)
                if "--calibrate" in loaded:
                    calibrate_realexec(report, loaded["--calibrate"], path)
            else:
                check_report(report, path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            return 1
        except Invalid as err:
            print(f"{path}: INVALID: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
