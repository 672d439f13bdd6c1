#!/usr/bin/env python3
"""Self-test of the jump-pipeline benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It builds the benchmark (through perfbench/run.py), runs every workload in
smoke mode (a four-clip corpus, one set-up, short windows) untraced and
then the traced run once, and asserts that:

  * each run exits 0 and ends with the JSON result line, whose metric names
    and units are exactly those BENCHMARK.json lists for that mode;
  * every metric this workload is documented to report (perfbench/METRICS.md)
    is printed, finite, and carries its unit;
  * every correctness check passed (frames shed under load are counted in
    `failed` but are not a correctness failure).

Exit status 0 means every assertion held; otherwise the failures are listed.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "3"

COMMON = ["setup_s", "frames_per_s", "latency_p50_ms", "latency_p99_ms",
          "latency_samples", "latency_beyond_p99", "pose_accuracy", "failed_pct", "peak_rss_mb"]
LIVE = COMMON + ["load.generator_lag_ms_p99", "ingest.push_us_p50",
                 "ingest.push_us_p99", "ingest.frames_per_tick", "ingest.queue_depth_peak",
                 "ingest.dropped_oldest_pct", "ingest.service_p99_ms", "ingest.service_max_ms",
                 "ingest.exact_p99_ms", "ingest.exact_max_ms", "ingest.hist_p99_over_exact"]
EXPECTED = {
    "batch_clips": COMMON,
    "live_60fps": LIVE,
    "live_60fps_recorded": LIVE + ["recorder_span_s", "obs.dump_ms", "obs.poll_us_p50",
                                   "obs.recorder_bytes_per_frame", "replay.replay_us_per_frame"],
}

METRIC_LINE = re.compile(r"^metric\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SMOKE_SECONDS, "--trace", trace, "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, bench, failures):
    label = f"{workload} --trace {trace}"
    before = len(failures)
    proc = run(workload, trace)
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}\n"
                        f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        failures.append(f"{label}: last line is not the JSON result")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    # Frames shed under load count in `failed` without making the outputs
    # wrong; a slow host can shed some, so only `correct` must hold here.
    if result.get("correct") is not True:
        failures.append(f"{label}: correct={result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted={result.get('attempted')}")
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        failures.append(f"{label}: failed={result.get('failed')}")

    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: body.get("unit") for name, body in result.get("metrics", {}).items()}
    if got != want:
        failures.append(f"{label}: JSON metrics {got} differ from BENCHMARK.json {want}")
    for name, body in result.get("metrics", {}).items():
        value = body.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: JSON metric {name} = {value!r}")

    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (match.group(2), match.group(3))
        if line.startswith("check") and "FAILED" in line:
            failures.append(f"{label}: {line}")
    names = list(want) if trace == "1" else EXPECTED[workload]
    for name in names:
        if name not in printed:
            failures.append(f"{label}: metric {name} missing")
            continue
        value, unit = printed[name]
        if not math.isfinite(float(value)) or not unit:
            failures.append(f"{label}: metric {name} = {value} {unit!r}")
    print(f"{label}: {len(printed)} metrics, {result.get('failed')} failed operations, "
          f"{'ok' if len(failures) == before else 'see failures'}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = []
    for workload in EXPECTED:
        check_run(workload, "0", bench, failures)
    check_run("batch_clips", "1", bench, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "passed" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
