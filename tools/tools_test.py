#!/usr/bin/env python3
"""Negative and positive checks of the report tools (stdlib unittest).

Proves that the gates fail when they should: a 20% p99 inflation, a
doubled time-series row or a dropped time-series stream fails
compare_report.py, a retired run-report schema tag, a tail attribution
entry without a latency or 2 ms off its latency fails check_report.py,
a 99 s calibration drift fails
check_report.py --calibrate, a bench report listing a self-check
violation fails its envelope check, a gated value 25% worse than its
baseline fails the --baseline gate, and smoke.py catches a report or a
trace artifact that changes between repeated runs, and a trace artifact
that is missing, not JSON or without events. Registered in ctest as
tools_test; run directly with
`python3 tools/tools_test.py`.
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)

import check_report  # noqa: E402
import compare_report  # noqa: E402
import smoke  # noqa: E402


def envelope(name="probe", violations=(), gated=None, **payload):
    report = {"schema": "canary.bench/v2", "name": name,
              "params": {"quick": True},
              "checks": {"violations": list(violations)},
              "gated": gated or {}}
    report.update(payload)
    return report


def realexec_report(real, sim):
    def block(components):
        out = dict(components)
        out["window_s"] = sum(components.values())
        return out
    scenario = {"kernel": "graph_bfs", "policy": "checkpoint_restore",
                "real": block(real), "sim": block(sim)}
    return envelope("realexec", scenarios=[scenario])


class ToolCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, obj):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def run_main(self, module, *argv):
        """Run a tool's main() quietly; returns (status, combined output)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = module.main([module.__name__] + list(argv))
        return status, out.getvalue()


class CompareReportTest(ToolCase):
    REFERENCE = os.path.join(ROOT, "bench", "attribution.reference.json")

    def reference(self):
        with open(self.REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)

    def compare_with(self, report):
        return self.run_main(compare_report, self.REFERENCE,
                             self.write("candidate.json", report))

    def test_reference_matches_itself(self):
        status, _ = self.run_main(compare_report, self.REFERENCE,
                                  self.REFERENCE)
        self.assertEqual(status, 0)

    def test_inflated_p99_fails(self):
        report = self.reference()
        for hist in report["metrics"]["histograms"].values():
            hist["p99"] *= 1.20
        status, output = self.compare_with(report)
        self.assertEqual(status, 1)
        self.assertIn("p99", output)

    def test_doubled_completions_row_fails(self):
        report = self.reference()
        rows = report["timeseries"]["counters"]["completions"]
        row = max(rows, key=lambda r: r[1])
        row[1] *= 2
        status, output = self.compare_with(report)
        self.assertEqual(status, 1)
        self.assertIn(f"timeseries.counters.completions.t{row[0]:g}", output)

    def test_dropped_stream_fails_as_missing(self):
        report = self.reference()
        del report["timeseries"]["levels"]["nodes_up"]
        status, output = self.compare_with(report)
        self.assertEqual(status, 1)
        self.assertIn("timeseries.levels.nodes_up.t", output)
        self.assertIn("missing in candidate", output)


class TailCheckTest(ToolCase):
    """The v3 tail validator: every percentile entry is a full
    attribution whose components sum to its latency within 1 sim-ms."""
    REFERENCE = CompareReportTest.REFERENCE

    def with_entry(self, mutate):
        with open(self.REFERENCE, encoding="utf-8") as fh:
            report = json.load(fh)
        mutate(report["tail"]["groups"]["tail_latency"]["percentiles"][0])
        return self.write("tail.json", report)

    def test_reference_passes(self):
        status, output = self.run_main(check_report, self.REFERENCE)
        self.assertEqual(status, 0, output)

    def test_entry_missing_latency_fails(self):
        report = self.with_entry(lambda e: e.pop("latency_s"))
        status, output = self.run_main(check_report, report)
        self.assertEqual(status, 1)
        self.assertIn("missing 'latency_s'", output)

    def test_attribution_two_ms_off_fails(self):
        report = self.with_entry(
            lambda e: e.update(attributed_s=e["latency_s"] + 2e-3))
        status, output = self.run_main(check_report, report)
        self.assertEqual(status, 1)
        self.assertIn("tolerance 1e-3", output)

    def test_retired_v2_schema_fails(self):
        with open(self.REFERENCE, encoding="utf-8") as fh:
            report = json.load(fh)
        report["schema"] = "canary.run_report/v2"
        status, output = self.run_main(check_report,
                                       self.write("v2.json", report))
        self.assertEqual(status, 1)
        self.assertIn("canary.run_report/v2", output)


class CalibrateTest(ToolCase):
    BANDS = os.path.join(ROOT, "bench", "BENCH_realexec.baseline.json")
    COMPONENTS = {"detection_s": 0.16, "scheduling_s": 0.0,
                  "launch_s": 0.004, "init_s": 0.05, "restore_s": 0.001,
                  "re_exec_s": 0.2}

    def test_real_equal_to_sim_passes(self):
        report = self.write("real.json", realexec_report(self.COMPONENTS,
                                                         self.COMPONENTS))
        status, output = self.run_main(check_report, "--calibrate",
                                       self.BANDS, report)
        self.assertEqual(status, 0, output)

    def test_drifted_component_fails(self):
        drifted = dict(self.COMPONENTS, detection_s=99.0)
        report = self.write("drifted.json",
                            realexec_report(drifted, self.COMPONENTS))
        status, output = self.run_main(check_report, "--calibrate",
                                       self.BANDS, report)
        self.assertEqual(status, 1)
        self.assertIn("CALIBRATION DRIFT", output)
        self.assertIn("detection_s", output)


class EnvelopeTest(ToolCase):
    def test_clean_envelope_passes(self):
        status, output = self.run_main(check_report,
                                       self.write("ok.json", envelope()))
        self.assertEqual(status, 0, output)

    def test_listed_violations_fail_and_are_shown(self):
        report = envelope(violations=["seed 7: exactly-once broken",
                                      "campaign totals: 1 partition(s) "
                                      "started but 0 healed"])
        status, output = self.run_main(check_report,
                                       self.write("bad.json", report))
        self.assertEqual(status, 1)
        self.assertIn("seed 7: exactly-once broken", output)
        self.assertIn("started but 0 healed", output)

    def test_malformed_envelopes_fail(self):
        for breakage in (
                lambda r: r.update(schema="canary.chaos/v1"),
                lambda r: r.update(name=""),
                lambda r: r["params"].pop("quick"),
                lambda r: r["checks"].update(violations=[3]),
                lambda r: r["gated"].update(x={"value": 1.0,
                                               "better": "up"}),
                lambda r: r["gated"].update(x={"value": "1",
                                               "better": "lower"})):
            report = envelope()
            breakage(report)
            status, _ = self.run_main(check_report,
                                      self.write("bad.json", report))
            self.assertEqual(status, 1, report)

    def test_committed_baselines_are_clean_envelopes(self):
        for entry in self.manifest_reports():
            if "baseline" in entry:
                status, output = self.run_main(
                    check_report, os.path.join(ROOT, entry["baseline"]))
                self.assertEqual(status, 0, output)

    @staticmethod
    def manifest_reports():
        with open(smoke.MANIFEST, encoding="utf-8") as fh:
            for entry in json.load(fh)["entries"]:
                yield from entry["reports"].values()


class GateTest(ToolCase):
    def gated(self, latency, throughput):
        return {"p99_ms": {"value": latency, "better": "lower"},
                "events_per_sec": {"value": throughput, "better": "higher"}}

    def gate(self, report):
        baseline = self.write("base.json",
                              envelope(gated=self.gated(100.0, 1000.0)))
        return self.run_main(check_report, "--baseline", baseline,
                             self.write("report.json", report))

    def test_within_band_passes(self):
        status, output = self.gate(envelope(gated=self.gated(115.0, 850.0)))
        self.assertEqual(status, 0, output)

    def test_lower_is_better_value_25_percent_worse_fails(self):
        status, output = self.gate(envelope(gated=self.gated(125.0, 1000.0)))
        self.assertEqual(status, 1)
        self.assertIn("p99_ms regressed", output)

    def test_higher_is_better_value_25_percent_worse_fails(self):
        status, output = self.gate(envelope(gated=self.gated(100.0, 750.0)))
        self.assertEqual(status, 1)
        self.assertIn("events_per_sec regressed", output)

    def test_exact_band_fails_one_step_worse(self):
        base = {"allocs": {"value": 0.75, "better": "lower", "band": 0}}
        baseline = self.write("base.json", envelope(gated=base))
        for value, expected in ((0.75, 0), (0.5, 0), (0.7501, 1)):
            report = envelope(gated={"allocs": {"value": value,
                                                "better": "lower"}})
            status, output = self.run_main(
                check_report, "--baseline", baseline,
                self.write("report.json", report))
            self.assertEqual(status, expected, output)
        self.assertIn("allocs regressed", output)

    def test_missing_gated_name_fails(self):
        gated = self.gated(100.0, 1000.0)
        del gated["events_per_sec"]
        status, output = self.gate(envelope(gated=gated))
        self.assertEqual(status, 1)
        self.assertIn("'events_per_sec' missing", output)

    def test_other_bench_or_mode_fails(self):
        status, _ = self.gate(envelope("other", gated=self.gated(1.0, 1.0)))
        self.assertEqual(status, 1)
        report = envelope(gated=self.gated(100.0, 1000.0))
        report["params"]["quick"] = False
        status, _ = self.gate(report)
        self.assertEqual(status, 1)


class SmokeTest(ToolCase):
    """smoke.run_entry against a throwaway build tree with a fake target."""

    def fake_target(self, script):
        path = os.path.join(self.dir.name, "bench", "fake")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#!{sys.executable}\n" + script)
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)

    def run_entry(self, **entry):
        entry = dict({"name": "fake", "target": "bench/fake",
                      "reports": {"BENCH_probe.json": {}}}, **entry)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return smoke.run_entry(entry, self.dir.name, full=False)

    # Writes a clean envelope; its payload records the arguments, so a
    # variant run with different arguments produces different bytes.
    WRITER = (
        "import json, os, sys\n"
        "report = {'schema': 'canary.bench/v2', 'name': 'probe',\n"
        "          'params': {'quick': os.environ['CANARY_QUICK'] == '1'},\n"
        "          'checks': {'violations': []}, 'gated': {},\n"
        "          'args': sys.argv[1:]}\n"
        "path = os.path.join(os.environ['CANARY_REPORT_DIR'],\n"
        "                    'BENCH_probe.json')\n"
        "json.dump(report, open(path, 'w'))\n")

    def test_repeat_and_validation_pass(self):
        self.fake_target(self.WRITER)
        self.assertEqual(self.run_entry(repeat=True), [])

    def test_report_that_changes_across_runs_fails(self):
        self.fake_target(self.WRITER)
        failures = self.run_entry(variants=[["--workers", "4"]])
        self.assertEqual(failures, ["BENCH_probe.json differs under variant1"])

    def test_failing_target_and_missing_report_fail(self):
        self.fake_target("import sys\nsys.exit(3)\n")
        self.assertEqual(self.run_entry(), ["bench/fake failed"])
        self.fake_target("pass\n")
        self.assertEqual(self.run_entry(),
                         ["bench/fake wrote no BENCH_probe.json"])

    def test_baseline_gate_applies(self):
        self.fake_target(self.WRITER)
        baseline = envelope(gated={"x": {"value": 1.0, "better": "lower"}})
        failures = self.run_entry(reports={"BENCH_probe.json": {
            "baseline": self.write("base.json", baseline)}})
        self.assertEqual(failures,
                         ["check_report.py failed on BENCH_probe.json"])

    # WRITER plus a chrome trace whose events come from the command line
    # (a lone "--bad" writes a truncated file instead).
    TRACE_WRITER = WRITER + (
        "trace = os.path.join(os.environ['CANARY_REPORT_DIR'],\n"
        "                     'run.trace.json')\n"
        "events = [{'name': a} for a in sys.argv[1:]]\n"
        "text = json.dumps({'traceEvents': events})\n"
        "if sys.argv[1:] == ['--bad']:\n"
        "    text = text[:-1]\n"
        "open(trace, 'w').write(text)\n")

    def run_traced(self, args, **entry):
        self.fake_target(self.TRACE_WRITER)
        return self.run_entry(args=args, artifacts=["run.trace.json"], **entry)

    def test_trace_artifact_passes_and_repeats(self):
        self.assertEqual(self.run_traced(["--x"], repeat=True), [])

    def test_trace_artifact_that_changes_across_runs_fails(self):
        self.assertEqual(self.run_traced(["--x"], variants=[["--y"]]),
                         ["BENCH_probe.json differs under variant1",
                          "run.trace.json differs under variant1"])

    def test_trace_artifact_missing_invalid_or_empty_fails(self):
        self.fake_target(self.WRITER)
        self.assertEqual(self.run_entry(artifacts=["run.trace.json"]),
                         ["bench/fake wrote no run.trace.json"])
        failures = self.run_traced(["--bad"])
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith(
            "run.trace.json is not valid JSON"), failures)
        self.assertEqual(self.run_traced([]),
                         ["run.trace.json has no traceEvents"])

    def test_manifest_names_existing_files(self):
        for report in EnvelopeTest.manifest_reports():
            for key in ("baseline", "calibrate", "reference"):
                if key in report:
                    self.assertTrue(
                        os.path.isfile(os.path.join(ROOT, report[key])),
                        report[key])


if __name__ == "__main__":
    unittest.main()
