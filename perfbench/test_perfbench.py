"""Self-test of the benchmark: python3 -m pytest -q perfbench

Checks that the references agree with dimcalc on small generated models,
that a wrong output is counted as a failure, that a seed regenerates the
same bytes, and that run.py prints what BENCHMARK.json declares.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dimcalc.cli  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, AcmeSession, Dense4D, ManyVars, check_exports  # noqa: E402


class SmallDense(Dense4D):
    def build(self, seed):
        spec, growth = generate.dense_4d(seed, scale=0.2)
        return spec, {"Growth": growth}


class SmallMany(ManyVars):
    def build(self, seed):
        return generate.many_vars(seed, formulas=80), {}


def _outcome(workload, tmp_path):
    _, outcome = run.Runner(workload, tmp_path).op(0, tmp_path / "out")
    return outcome


@pytest.mark.parametrize("kind", [SmallDense, SmallMany])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_models_match_reference(kind, seed, tmp_path):
    workload = kind(ROOT, tmp_path, seed)
    assert workload.problems == []
    outcome = _outcome(workload, tmp_path)
    assert outcome.failure() is None
    assert workload.check(0, outcome) == []


def test_acme_session_matches_oracle(tmp_path):
    workload = AcmeSession(ROOT, tmp_path, seed=5)
    assert workload.check(0, _outcome(workload, tmp_path)) == []


def _perturbed(value):
    return repr(value * (1 + 1e-6))


@pytest.mark.parametrize("kind", [AcmeSession, SmallMany])
def test_perturbed_output_is_a_failure(kind, tmp_path, monkeypatch):
    workload = kind(ROOT, tmp_path, 4)
    monkeypatch.setattr(dimcalc.cli, "format_number", _perturbed)
    first = _outcome(workload, tmp_path)
    verdicts = run.Verdicts(workload, first)
    verdicts.judge(1, first)
    verdicts.finish()
    assert verdicts.attempted == 2
    assert verdicts.failed == 2


def test_changed_output_between_ops_is_a_failure(tmp_path):
    workload = SmallMany(ROOT, tmp_path, 4)
    runner = run.Runner(workload, tmp_path)
    _, first = runner.op(0, tmp_path / "first")
    verdicts = run.Verdicts(workload, first)
    _, again = runner.op(1, tmp_path / "out")
    (again.out_dir / "stray.csv").write_text("x\n")
    verdicts.judge(1, again)
    verdicts.finish()
    assert (verdicts.attempted, verdicts.failed) == (2, 1)


def test_unreadable_numbers_are_problems(tmp_path):
    (tmp_path / "A.csv").write_text("D,value\nx,oops\n")
    expected = {("A", ("x",)): 1.0, ("B", ()): 2.0}
    assert len(check_exports(tmp_path, "B = ?\n", expected, ["A"], ["B"])) == 2


# sha256 of the full-size model text at seed 1; a change here changes
# the benchmark's inputs, and needs a new baseline
PINNED = {
    "dense_4d": "75a3f9eebefb464ba83a75b5a9487f5f831d89ac2d3a089b36eb0a8204396dab",
    "many_vars": "fad580b6725c71291c29d4b8e7c5e575a9ca2244da3bd507283f0d28723d83a5",
}


@pytest.mark.parametrize("name", ["dense_4d", "many_vars"])
def test_seed_regenerates_same_bytes(name, tmp_path):
    texts = []
    for i, seed in enumerate((1, 1, 2)):
        work = tmp_path / str(i)
        work.mkdir()
        texts.append(WORKLOADS[name](ROOT, work, seed).model.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    assert hashlib.sha256(texts[0]).hexdigest() == PINNED[name]


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def bench_run():
    """One-second runs at seed 9, each made once per test module."""
    done = {}

    def get(workload: str, trace: str, repeat: int = 0):
        key = (workload, trace, repeat)
        if key not in done:
            code, lines = _bench("--workload", workload, "--seed", "9",
                                 "--seconds", "1", "--trace", trace)
            assert code == 0
            summary = json.loads(lines[-2].split(": ", 1)[1])
            done[key] = json.loads(lines[-1]), summary
        return done[key]
    return get


@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_declared_metrics(trace, bench_run):
    result, _ = bench_run("acme_session", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "1":
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = ("bench.self_ms", "cli.self_ms", "parser.self_ms", "model.validate_ms",
                  "checker.check_ms", "evaluator.eval_ms", "diagram.emit_ms")
        assert sum(values[k] for k in layers) == pytest.approx(values["op.span_ms"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_runs_repeat_digests_and_counts(workload, bench_run):
    runs = [bench_run(workload, "1", 0), bench_run(workload, "1", 1),
            bench_run(workload, "0")]
    assert all(result["correct"] for result, _ in runs)
    assert len({summary["first_op_sha256"] for _, summary in runs}) == 1
    assert runs[0][1]["counts"] == runs[1][1]["counts"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "acme_session", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert lines == []
