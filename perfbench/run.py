"""yieldtree benchmark runner (stdlib and yieldtree only).

    python3 perfbench/run.py --workload fab_sites --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ./src.

--trace 0  times fresh `analyze` processes one after another (a closed
           loop, one client) for --seconds and prints the end-to-end
           metrics: run_s, rows_per_s, setup_s, peak_rss_mb.
--trace 1  runs two counting passes, then traced and untraced processes in
           turn for --seconds, checks that every run writes the same
           artifacts, and prints the per-layer metrics.

--workload all runs every workload in turn.

Every run's artifacts must hash to the same SHA-256 and its manifest must
report the workload's known input and screen counts. For each workload,
human-readable lines come first and one JSON result line last.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A workload's runs all end within this many seconds of its start.
WORKLOAD_SECONDS = 170


if not (SRC / "yieldtree" / "__init__.py").is_file():
    sys.exit(f"perfbench: no yieldtree sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from yieldtree import synthfab  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _artifacts(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact (name and bytes, in name order), and their total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode("utf-8") + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def _run_child(mode: str, config: Path, deadline: float) -> dict:
    """One analyze run in a fresh process; raises RuntimeError on any failure."""
    shutil.rmtree(config.parent / "out", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for a {mode} run")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(config), repr(launched)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} run did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["yieldtree"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"run imported yieldtree from {report['yieldtree']}, not {SRC}")
    report["sha256"], report["artifact_bytes"] = _artifacts(config.parent / "out")
    return report


def _manifest_problems(manifest: dict, out: Path, prepared) -> list[str]:
    """Differences between the run's manifest and what the workload's input implies."""
    problems = []
    if manifest["input"]["rows"] != prepared.input_rows:
        problems.append(f"input rows {manifest['input']['rows']} != {prepared.input_rows}")
    if manifest["screens"] != prepared.expected_screens:
        problems.append(f"screens {manifest['screens']} != {prepared.expected_screens}")
    for target in manifest["targets"]:
        for kind in ("rules", "tree", "histogram"):
            if not (out / target["artifacts"].get(kind, "?")).is_file():
                problems.append(f"target {target['name']} wrote no {kind} artifact")
    return problems


def _rule_conditions(node: dict, path: tuple = ()):
    """(column, value, negated) of every condition on a path to a class-1 leaf
    of a written tree; negated means the path took the test's false branch."""
    if node["leaf"]:
        if node["class"] == 1:
            yield from path
        return
    test = (node["test"]["column"], node["test"]["value"])
    yield from _rule_conditions(node["true"], path + (test + (False,),))
    yield from _rule_conditions(node["false"], path + (test + (True,),))


def _planted_recovered(manifest: dict, out: Path, scenario) -> tuple[float, list[str]]:
    """Share of planted effects whose ground-truth feature appears in a rule
    condition of any target; machine and supplier need `= <bad id>`."""
    conditions = set()
    for target in manifest["targets"]:
        tree = json.loads((out / target["artifacts"]["tree"]).read_text(encoding="utf-8"))
        conditions.update(_rule_conditions(tree["root"]))
    truth = synthfab.ground_truth(scenario)
    missed = []
    for entry in truth:
        if entry.feature in ("machine", "supplier"):
            hit = (entry.feature, entry.value, False) in conditions
        else:
            hit = any(column == entry.feature for column, _, _ in conditions)
        if not hit:
            missed.append(type(entry.effect).__name__)
    return (len(truth) - len(missed)) / len(truth), missed


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    k = n - 10  # 1-based rank of the order statistic
    return f"p{100 * k // n} {sorted(values)[k - 1]:.4f} (n={n}, 10 beyond)"


class Runs:
    """Runs of one workload: results, failures and the artifact digest they share."""

    def __init__(self, prepared) -> None:
        self.prepared = prepared
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.sha256: str | None = None
        self.manifest: dict | None = None
        self.out = prepared.config_path.parent / "out"
        self.deadline = time.monotonic() + WORKLOAD_SECONDS

    def run(self, mode: str) -> dict | None:
        self.attempted += 1
        try:
            report = _run_child(mode, self.prepared.config_path, self.deadline)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{mode} run: {exc}")
            return None
        if self.manifest is None:
            self.sha256 = report["sha256"]
            self.manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
            self.problems += _manifest_problems(self.manifest, self.out, self.prepared)
            self.recovered, self.missed = _planted_recovered(
                self.manifest, self.out, self.prepared.scenario)
        elif report["sha256"] != self.sha256:
            self.failures.append(f"{mode} run wrote artifacts {report['sha256'][:16]}, "
                                 f"first run wrote {self.sha256[:16]}")
            return None
        return report

    def loop(self, modes: tuple[str, ...], seconds: float) -> dict[str, list[dict]]:
        """Closed loop: start the next run when the last ends, cycling through
        modes, until time is up and every mode has a report."""
        reports: dict[str, list[dict]] = {mode: [] for mode in modes}
        start = time.perf_counter()
        for mode in itertools.cycle(modes):
            if all(reports.values()) and time.perf_counter() - start >= seconds:
                break
            report = self.run(mode)
            if report is not None:
                reports[mode].append(report)
            elif self.attempted > 3 * sum(map(len, reports.values())) + 3:
                break
        return reports


def _median(reports: list[dict], key) -> float:
    return statistics.median(key(r) for r in reports)


def measure_end_to_end(runs: Runs, seconds: float) -> dict:
    reports = runs.loop(("plain",), seconds)["plain"]
    if not reports:
        return {}
    rows = runs.prepared.total_rows
    run_s = [r["run_s"] for r in reports]
    print(f"run_s      median {statistics.median(run_s):.4f} s, tail {_tail(run_s)}")
    return {
        "run_s": (statistics.median(run_s), "s"),
        "rows_per_s": (statistics.median(rows / t for t in run_s), "rows/s"),
        "setup_s": (_median(reports, lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (_median(reports, lambda r: r["peak_rss_mb"]), "MiB"),
    }


def measure_per_layer(runs: Runs, seconds: float) -> dict:
    counted = [runs.run("count") for _ in range(2)]
    reports = runs.loop(("trace", "plain"), seconds)
    traced, plain = reports["trace"], reports["plain"]
    if None in counted or not traced or not plain:
        return {}

    object_counts = counted[0]["counts"]
    if counted[1]["counts"] != object_counts:
        runs.problems.append(f"object counts differ: {counted[0]['counts']} != {counted[1]['counts']}")
    call_counts = traced[0]["counts"]
    for report in traced[1:]:
        if report["counts"] != call_counts:
            runs.problems.append(f"call counts differ: {call_counts} != {report['counts']}")

    expected = set(tracer.SPAN_NAMES) - runs.prepared.unused_spans
    for report in traced:
        if set(report["fired"]) != expected:
            runs.problems.append(
                f"spans fired {sorted(report['fired'])}, expected {sorted(expected)}")
        covered = sum(v for k, v in report["self_s"].items() if k != "pipeline.load_config_s")
        if abs(covered - report["run_s"]) > 0.05 * report["run_s"]:
            runs.problems.append(
                f"self times sum to {covered:.4f} s, traced run_s is {report['run_s']:.4f} s")

    overhead = _median(traced, lambda r: r["run_s"]) - _median(plain, lambda r: r["run_s"])
    print(f"traced     {len(traced)} traced and {len(plain)} untraced runs, alternating; "
          f"tracing overhead {overhead:+.4f} s on the median run_s")
    metrics = {name: (_median(traced, lambda r, n=name: r["self_s"][n]), "s")
               for name in tracer.TIME_METRICS}
    for name, value in {**call_counts, **object_counts}.items():
        metrics[name] = (value, "count")
    scanned = call_counts["induce.split_rows_scanned"]
    metrics["induce.ns_per_scan"] = (
        1e9 * metrics["induce.train_s"][0] / scanned if scanned else 0.0, "ns")
    metrics["pipeline.artifact_bytes"] = (plain[0]["artifact_bytes"], "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")

    total = sum(metrics[name][0] for name in tracer.TIME_METRICS
                if name != "pipeline.load_config_s")
    print("self times, share of the traced run:")
    for name in sorted(tracer.TIME_METRICS, key=lambda n: -metrics[n][0]):
        print(f"  {name:28s} {metrics[name][0]:9.4f} s  {100 * metrics[name][0] / total:5.1f}%")
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool) -> None:
    build, why = WORKLOADS[workload]
    work = ROOT / ".perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        prepared = build(seed, work)
        print(f"workload   {workload} seed {seed}: {why}")
        print(f"machine    nproc {os.cpu_count()}, {_cpu_model()}, "
              f"Python {platform.python_version()}")
        print(f"input      sha256 {prepared.input_sha256}")
        runs = Runs(prepared)
        metrics = (measure_per_layer if trace else measure_end_to_end)(runs, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runs.failures)
    error_rate = failed / runs.attempted
    if runs.manifest is not None:
        print(f"manifest   input rows {json.dumps(runs.manifest['input']['rows'])}, "
              f"{prepared.total_rows} in all")
        print(f"manifest   screens {json.dumps(runs.manifest['screens'], sort_keys=True)}")
        print(f"artifacts  sha256 {runs.sha256}")
        print(f"recovery   planted_recovered {runs.recovered:.4f} ratio; "
              f"missed {runs.missed or 'none'}")
    for line in runs.failures + runs.problems:
        print(f"problem    {line}")
    print(f"errors     error_rate {error_rate:.4f} ratio ({failed} of {runs.attempted} runs)")
    if trace:
        metrics["planted_recovered"] = (runs.recovered if runs.manifest else 0.0, "ratio")
        metrics["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric     {name} = {value} {unit}")

    correct = bool(metrics) and not runs.failures and not runs.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        bench(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
