"""dimcalc benchmark: one closed-loop workload, one caller, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dimcalc checkout; the engine is imported from its
`src/`. Each op calls `dimcalc.cli.main(argv)` with stdout and stderr
captured, and every op's outputs are checked outside the timed interval
against references that share no code with dimcalc (see workloads.py).

--trace 0 prints the end-to-end metrics: the median op latency as a
multiple of a machine control run beside it, the set-up time (median
cold `import dimcalc.cli` over fresh interpreters) and the process's
peak RSS. --trace 1 splits the time between an untraced and a traced
half and prints the per-layer metrics. The last
line of stdout is one JSON object; the line before it is a readable
summary. Spans and counts are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import generate
import reference
import spans
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
NEEDED = ("src/dimcalc/cli.py", "fixtures/acme.dml", "tests/oracles.py",
          "tests/dot_grammar.py")
SETUP_LAUNCHES = 15
CALIBRATION_SEED = 0
CALIBRATION_FORMULAS = 150
IMPORT_CLI = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dimcalc.cli
print(time.perf_counter() - start, dimcalc.cli.__file__)
"""


def launch_setup() -> float:
    """Seconds a fresh interpreter spends in `import dimcalc.cli`."""
    src = ROOT / "src"
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_CLI, str(src)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    elapsed, module = done.stdout.split()
    if not Path(module).is_relative_to(src):
        raise RuntimeError(f"child imported dimcalc from {module}")
    return float(elapsed)


class Runner:
    """Runs ops, and beside them the machine control and set-up launches.

    The machine control is the reference evaluator on a fixed model: pure
    Python, like dimcalc, but benchmark code, so its time changes only
    when the machine's speed does. It runs just before and just after
    every op. Set-up launches are spread over the timed loop, so that
    they see the same machine as the ops do.
    """

    def __init__(self, workload, work: Path, setup_every: float | None = None):
        import dimcalc.cli
        self.cli = dimcalc.cli
        self.workload = workload
        self.op_dir = work / "op"
        self.calibration_spec = generate.many_vars(CALIBRATION_SEED,
                                                   CALIBRATION_FORMULAS)
        self.calib: list[float] = []  # ms
        self.setup: list[float] = []
        self.setup_every = setup_every
        self._next_setup = 0.0

    def calibrate(self) -> float:
        """Seconds the machine control takes now.

        The garbage collector is off while it runs, so that the size of
        dimcalc's heap does not change its time.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference.evaluate(self.calibration_spec)
            seconds = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.calib.append(seconds * 1e3)
        return seconds

    def op(self, i: int, out_dir: Path, tracer=None) -> tuple[float, Outcome]:
        """Run op `i`; returns its latency in seconds and what it left."""
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        calls = self.workload.calls(i, out_dir)
        codes, outs, err = [], [], io.StringIO()
        error = None
        start = perf_counter()
        root = tracer.open("bench") if tracer else None
        try:
            for argv in calls:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    codes.append(self.cli.main(argv))
                outs.append(out.getvalue())
        except Exception as e:  # an engine bug: count the op as failed, go on
            error = f"{type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.close(root)
        latency = perf_counter() - start
        return latency, Outcome(codes, outs, err.getvalue(), out_dir, error)

    def launch_setup_if_due(self) -> bool:
        if self.setup_every and perf_counter() >= self._next_setup:
            self.setup.append(launch_setup())
            self._next_setup = perf_counter() + self.setup_every
            return True
        return False

    def phase(self, seconds: float, judge, tracer=None,
              on_op=None) -> tuple[list[float], list[float]]:
        """Closed loop of ops 0, 1, 2, ... for `seconds`.

        Returns each op's latency in seconds, and the same latency over
        the mean of the machine controls run just before and just after
        the op. The machine's speed drifts in phases of seconds to
        minutes; the ratio follows dimcalc's work and cancels most of
        the drift.
        """
        latencies, relative = [], []
        deadline = perf_counter() + seconds
        before = None
        i = 0
        while i == 0 or perf_counter() < deadline:
            if before is None:
                before = self.calibrate()
            latency, outcome = self.op(i, self.op_dir, tracer)
            after = self.calibrate()
            latencies.append(latency)
            relative.append(latency / ((before + after) / 2))
            judge(i, outcome)
            if on_op:
                on_op(outcome)
            before = None if self.launch_setup_if_due() else after
            i += 1
        return latencies, relative


class Verdicts:
    """Judges ops; an op fails if it errs or its outputs are wrong."""

    def __init__(self, workload, first: Outcome):
        self.workload = workload
        self.problems: list[str] = list(workload.problems)
        self.attempted = 0
        self.failed = 0
        self.first = first
        self.first_digest = first.digest()
        self.pending = 0  # ops judged by digest, before the reference check
        self.judge(0, first)

    def judge(self, i: int, outcome: Outcome) -> None:
        self.attempted += 1
        if self.workload.same_every_op:
            if outcome.digest() == self.first_digest:
                self.pending += 1
                return
            problems = ["output differs from the first op's"]
        else:
            problems = self.workload.check(i, outcome)
        if problems:
            self.failed += 1
            self.problems += problems

    def finish(self) -> None:
        """Check the first op against the reference; it vouches for its twins."""
        if self.workload.same_every_op:
            problems = self.workload.check(0, self.first)
            if problems:
                self.failed += self.pending
                self.problems += problems
            self.pending = 0
        if self.workload.problems:
            self.failed = self.attempted


def latency_tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten
    samples above it, or the median when there are 20 samples or fewer."""
    n = len(latencies)
    pct = (100 * (n - 10)) // n if n > 20 else 50
    return sorted(latencies)[n * pct // 100], pct


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_alloc_mb(runner: Runner, verdicts: Verdicts) -> float:
    """tracemalloc peak inside `evaluate` during one untimed op."""
    cli = runner.cli
    evaluate = cli.evaluate
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return evaluate(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli.evaluate = measured
    try:
        _, outcome = runner.op(0, runner.op_dir)
    finally:
        cli.evaluate = evaluate
    verdicts.judge(0, outcome)
    return max(peaks, default=0) / 2**20


def traced_run(runner: Runner, verdicts: Verdicts, seconds: float):
    """Untraced half, then traced half; returns (metrics, counts, tracer)."""
    untraced, untraced_rel = runner.phase(seconds / 2, verdicts.judge)
    tracer = spans.Tracer()
    counts: list[dict] = []

    def count(outcome: Outcome) -> None:
        csvs = [p.read_bytes() for p in outcome.out_dir.glob("*.csv")]
        done = spans.count_work(tracer.calls)
        done["csv_rows"] = sum(data.count(b"\n") - 1 for data in csvs)
        done["csv_bytes"] = sum(len(data) for data in csvs)
        tracer.calls.clear()
        counts.append(done)

    with tracer.installed():
        traced, traced_rel = runner.phase(seconds / 2, verdicts.judge, tracer, count)
    # every op runs the same model, so every count but csv_bytes (which
    # follows acme's input price) must repeat exactly
    fixed = [{k: v for k, v in c.items() if k != "csv_bytes"} for c in counts]
    for i, c in enumerate(fixed):
        if c != fixed[0]:
            verdicts.failed += 1
            verdicts.problems.append(f"traced op {i} counted {c}, op 0 {fixed[0]}")

    n = len(traced)
    overhead = statistics.median(traced_rel) / statistics.median(untraced_rel) - 1
    own = {layer: total / n for layer, total in tracer.self_times().items()}
    c = counts[0]

    def rate(seconds_per_op: float, per_op: int, scale: float) -> float:
        return seconds_per_op / per_op * scale if per_op else 0.0

    tail, pct = latency_tail(untraced)
    metrics = {
        "parser.self_ms": metric(own["parser"] * 1e3, "ms"),
        "parser.ns_per_byte": metric(rate(own["parser"], c["source_bytes"], 1e9), "ns/byte"),
        "model.validate_ms": metric(own["model"] * 1e3, "ms"),
        "model.refs": metric(c["refs"], "count"),
        "checker.check_ms": metric(own["checker"] * 1e3, "ms"),
        "checker.nodes": metric(c["nodes"], "count"),
        "evaluator.eval_ms": metric(own["evaluator"] * 1e3, "ms"),
        "evaluator.cells": metric(c["cells"], "count"),
        "evaluator.sum_terms": metric(c["sum_terms"], "count"),
        "evaluator.ns_per_cell": metric(rate(own["evaluator"], c["cells"], 1e9), "ns/cell"),
        "evaluator.us_per_var": metric(rate(own["evaluator"], c["formula_vars"], 1e6), "us/var"),
        "evaluator.peak_alloc_mb": metric(peak_alloc_mb(runner, verdicts), "MB"),
        "diagram.emit_ms": metric(own["diagram"] * 1e3, "ms"),
        "cli.self_ms": metric(own["cli"] * 1e3, "ms"),
        "cli.csv_rows": metric(c["csv_rows"], "count"),
        "cli.csv_bytes": metric(c["csv_bytes"], "bytes"),
        "cli.ns_per_row": metric(rate(own["cli"], c["csv_rows"], 1e9), "ns/row"),
        "bench.self_ms": metric(own["bench"] * 1e3, "ms"),
        "op.span_ms": metric(statistics.fmean(tracer.roots()) * 1e3, "ms"),
        "op.latency_calib_p50": metric(statistics.median(untraced_rel), "x_calib"),
        "op.latency_ms_p50": metric(statistics.median(untraced) * 1e3, "ms"),
        "op.latency_ms_tail": metric(tail * 1e3, "ms"),
        "op.latency_tail_pct": metric(pct, "percentile"),
        "op.samples": metric(len(untraced), "count"),
        "trace.overhead_pct": metric(overhead * 100, "%"),
    }
    return metrics, c, tracer


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Returns (result, summary): the JSON result line and a fuller record."""
    work = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](ROOT, work, seed)
        runner = Runner(workload, work, None if trace else seconds / SETUP_LAUNCHES)
        _, first = runner.op(0, work / "first")
        verdicts = Verdicts(workload, first)
        summary = {"workload": workload_name, "seed": seed, "trace": int(trace),
                   "first_op_sha256": verdicts.first_digest}
        if trace:
            metrics, summary["counts"], tracer = traced_run(runner, verdicts, seconds)
        else:
            launch_setup()  # may write the bytecode cache; an installed CLI has one
            latencies, relative = runner.phase(seconds, verdicts.judge)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            while len(runner.setup) < SETUP_LAUNCHES:
                runner.setup.append(launch_setup())
            metrics = {
                "latency_calib_p50": metric(statistics.median(relative), "x_calib"),
                "setup_s": metric(statistics.median(runner.setup), "s"),
                "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
            }
            tail, pct = latency_tail(latencies)
            summary.update(samples=len(latencies),
                           p50_ms=statistics.median(latencies) * 1e3,
                           min_ms=min(latencies) * 1e3,
                           tail_ms=tail * 1e3, tail_pct=pct)
            tracer = None
        # the reference check runs only now, so its memory stays out of peak RSS
        verdicts.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calib = statistics.median(runner.calib)
    if trace:
        metrics["fail_ratio"] = metric(verdicts.failed / verdicts.attempted, "ratio")
        metrics["machine.calib_ms"] = metric(calib, "ms")
    summary.update(ops=verdicts.attempted, failed=verdicts.failed, calib_ms=calib,
                   problems=verdicts.problems[:5])
    write_record(summary, metrics, tracer)
    result = {"correct": verdicts.failed == 0 and not verdicts.problems,
              "attempted": verdicts.attempted, "failed": verdicts.failed,
              "metrics": metrics}
    return result, summary


def write_record(summary: dict, metrics: dict, tracer) -> None:
    """Summary, metrics and every span of the run, as one JSON file."""
    record = dict(summary, metrics=metrics)
    if tracer:
        t0 = tracer.spans[0][2] if tracer.spans else 0.0
        record["spans"] = [[layer, parent, start - t0, end - t0]
                           for layer, parent, start, end in tracer.spans]
    name = f"{summary['workload']}-seed{summary['seed']}-trace{summary['trace']}.json"
    (ROOT / ".perfbench_out" / name).write_text(json.dumps(record), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in NEEDED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a dimcalc checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dimcalc
    if not Path(dimcalc.__file__).is_relative_to(ROOT / "src"):
        print(f"perfbench: imported dimcalc from {dimcalc.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in summary["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("perfbench summary: " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
