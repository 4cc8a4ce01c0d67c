#!/usr/bin/env python3
"""Run the smoke manifest (bench/smoke.json) against a build tree.

Usage:  smoke.py [--build-dir DIR] [--full] [NAME ...]

For each manifest entry (every one, or the NAMEs given) the runner works
in DIR/smoke/<name>/ (DIR defaults to build): it runs the entry's target
with its arguments and CANARY_QUICK=1, requires exit status 0 and every
listed report, then validates each report with tools/check_report.py,
gated against its committed baseline and calibration band, and diffs it
against its tools/compare_report.py reference. Each file listed under an
entry's `artifacts` (a chrome trace) must exist too and parse as JSON
with a non-empty `traceEvents` array. An entry marked `repeat` runs
twice, and each argument variant runs once more; every report and
artifact must come out byte-identical to the first run's.

--full runs at full depth instead: CANARY_QUICK is unset, and the
repeats, variants and baselines (which hold quick-mode numbers) are
skipped.

A run's output goes to output.log next to its reports and is printed
only when the run fails. Every selected entry runs even after another
failed; the summary names the failures and the exit status is 1 if there
were any. Stdlib only.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "bench", "smoke.json")
CHECK_REPORT = os.path.join(ROOT, "tools", "check_report.py")
COMPARE_REPORT = os.path.join(ROOT, "tools", "compare_report.py")


def run_target(binary, args, out_dir, full):
    """Run one target in a fresh out_dir; returns True on exit status 0."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ, CANARY_REPORT_DIR=out_dir)
    if full:
        env.pop("CANARY_QUICK", None)
    else:
        env["CANARY_QUICK"] = "1"
    log_path = os.path.join(out_dir, "output.log")
    with open(log_path, "w", encoding="utf-8") as log:
        status = subprocess.run([binary] + args, cwd=out_dir, env=env,
                                stdout=log,
                                stderr=subprocess.STDOUT).returncode
    if status != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            sys.stdout.write(log.read())
        print(f"   {' '.join([binary] + args)}: exit status {status}")
    return status == 0


def trace_problem(path):
    """Why `path` is not a chrome trace with events, or None if it is."""
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except ValueError as err:
        return f"is not valid JSON ({err})"
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list) or not events:
        return "has no traceEvents"
    return None


def tool(*argv):
    """Run one of the report tools; returns True on success."""
    sys.stdout.flush()
    return subprocess.run([sys.executable] + list(argv)).returncode == 0


def run_entry(entry, build_dir, full):
    """Run one manifest entry; returns the list of its failures."""
    binary = os.path.join(build_dir, entry["target"])
    if not os.path.isfile(binary):
        return [f"{binary} is not built"]
    out_dir = os.path.join(build_dir, "smoke", entry["name"])
    args = entry.get("args", [])
    reports = entry["reports"]
    outputs = list(reports) + entry.get("artifacts", [])
    if not run_target(binary, args, out_dir, full):
        return [f"{entry['target']} failed"]
    missing = [r for r in outputs
               if not os.path.isfile(os.path.join(out_dir, r))]
    if missing:
        return [f"{entry['target']} wrote no {', '.join(missing)}"]

    failures = []
    reruns = []  # (label, extra arguments)
    if not full:
        if entry.get("repeat"):
            reruns.append(("repeat", []))
        for i, extra in enumerate(entry.get("variants", []), start=1):
            reruns.append((f"variant{i}", extra))
    for label, extra in reruns:
        rerun_dir = f"{out_dir}.{label}"
        if not run_target(binary, args + extra, rerun_dir, full):
            failures.append(f"{label} run failed")
            continue
        for report in outputs:
            same = filecmp.cmp(os.path.join(out_dir, report),
                               os.path.join(rerun_dir, report), shallow=False)
            print(f"   {label} ({' '.join(extra) or 'same arguments'}): "
                  f"{report} {'byte-identical' if same else 'DIFFERS'}")
            if not same:
                failures.append(f"{report} differs under {label}")

    for report, checks in reports.items():
        path = os.path.join(out_dir, report)
        argv = [CHECK_REPORT]
        if "baseline" in checks and not full:
            argv += ["--baseline", os.path.join(ROOT, checks["baseline"])]
        if "calibrate" in checks:
            argv += ["--calibrate", os.path.join(ROOT, checks["calibrate"])]
        if not tool(*argv, path):
            failures.append(f"check_report.py failed on {report}")
        if "reference" in checks and not tool(
                COMPARE_REPORT, os.path.join(ROOT, checks["reference"]), path):
            failures.append(f"compare_report.py failed on {report}")
    for artifact in entry.get("artifacts", []):
        problem = trace_problem(os.path.join(out_dir, artifact))
        if problem:
            print(f"   {artifact} {problem}")
            failures.append(f"{artifact} {problem}")
    return failures


def main(argv):
    build_dir = "build"
    full = False
    names = []
    i = 1
    while i < len(argv):
        if argv[i] == "--build-dir" and i + 1 < len(argv):
            build_dir = argv[i + 1]
            i += 1
        elif argv[i] == "--full":
            full = True
        elif argv[i].startswith("-"):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        else:
            names.append(argv[i])
        i += 1

    with open(MANIFEST, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    known = [entry["name"] for entry in entries]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown entries {unknown}; the manifest has {known}",
              file=sys.stderr)
        return 2

    build_dir = os.path.abspath(build_dir)
    failed = {}
    selected = [e for e in entries if not names or e["name"] in names]
    for entry in selected:
        print(f"== {entry['name']}: {entry['target']} "
              f"{' '.join(entry.get('args', []))}".rstrip(), flush=True)
        failures = run_entry(entry, build_dir, full)
        if failures:
            failed[entry["name"]] = failures
    passed = len(selected) - len(failed)
    print(f"== smoke ({'full' if full else 'quick'}): {passed} of "
          f"{len(selected)} entries passed")
    for name, failures in failed.items():
        print(f"   FAILED {name}: {'; '.join(failures)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
