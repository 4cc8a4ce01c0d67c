#!/usr/bin/env python3
"""Self-test of the simulator benchmark, at tiny size (about a minute).

Usage (from the repository root):
    python3 perfbench/selftest.py

Checks that
  1. for every workload, an untraced pass, a traced pass and the public
     ScenarioRunner::run produce the same digest of simulated statistics and
     pass the chaos oracles (canary_perfbench --self-test);
  2. with --trace 0 and --trace 1, every metric BENCHMARK.json names is
     printed by name with its unit, and the JSON line carries exactly those
     metrics with the same units;
  3. a deliberately wrong pinned digest makes the command fail.
Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=2 * run.RUN_SLACK_S)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines[:-1], json.loads(lines[-1]) if lines else None


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    binary = run.build()

    wiring = subprocess.run([str(binary), "--self-test", "--seed", "7"],
                            capture_output=True, text=True)
    print(wiring.stdout, end="")
    check(wiring.returncode == 0,
          "traced, untraced and ScenarioRunner::run digests agree")

    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, text, result = bench(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} --trace {trace} passes its checks")
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected,
                  f"{workload} --trace {trace} JSON has the {section} metrics")
            printed = "\n".join(text)
            missing = [name for name, unit in expected.items()
                       if not re.search(rf"^  {re.escape(name)} = \S+ "
                                        rf"{re.escape(unit)}\b",
                                        printed, re.MULTILINE)]
            check(not missing,
                  f"{workload} --trace {trace} prints every metric with its "
                  f"unit{' (missing ' + ', '.join(missing) + ')' if missing else ''}")

    code, _, result = bench("canary_commit", 0, "--expect-digest",
                            "0123456789abcdef")
    check(code != 0 and result is not None and not result["correct"],
          "a wrong pinned digest fails the run")
    print("self-test passed")


if __name__ == "__main__":
    main()
