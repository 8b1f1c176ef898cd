"""Tests of the end-to-end benchmark, at ``--smoke`` scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert set(workloads.D2_DRIVERS + workloads.D1_DRIVERS) == set(run.ANALYSIS_DRIVERS)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    records = tmp_path / "runs.jsonl"
    result = _result(_run("--workload", workload, "--seed", "2018", "--seconds", "0",
                          "--trace", trace, "--size", "smoke", "--json", str(records)))
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    (record,) = [json.loads(line) for line in records.read_text().splitlines()]
    assert record["result"] == result
    traced = [it for it in record["iterations"] if it["traced"]]
    assert len(traced) == (1 if trace == "1" else 0)
    for iteration in traced:
        spans, tree = iteration["trace"]["spans"], iteration["trace"]["tree"]
        assert spans and tree
        assert {span["run"] for span in spans} == {f"{workload}:2018"}
        for index, span in enumerate(spans):
            assert -1 <= span["parent"] < index
            assert 0 <= span["start"] <= span["end"]


def test_all_workloads_end_in_one_merged_result():
    result = _result(_run("--seconds", "0", "--size", "smoke"))
    assert set(result["metrics"]) == {
        f"{workload}.{m['name']}" for workload in run.WORKLOADS for m in SPEC["end_to_end"]
    }


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "lint-audit", "--size", "smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_matches_untraced_and_restores_every_patch(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "smoke")
    workload.setup()
    plain_outputs, _ = workload.body(tracing.NullTracer(), tmp_path).verify()

    tracer = tracing.Tracer(name)
    tracing.install(tracer)
    patched = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    try:
        traced_outputs, _ = workload.body(tracer, tmp_path).verify()
    finally:
        tracer.finish()
        tracer.restore()
    assert traced_outputs == plain_outputs
    assert patched
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)

    trace = tracing.reduce(tracer)
    assert all(seconds >= -1e-9 for seconds in trace.self_s.values())
    assert sum(trace.self_s.values()) <= trace.wall_s * (1 + 1e-9)
    busy = [v for k, v in run.layer_values(
        {**vars(trace), "prepared_cache": workload.env.snapshot_cache_stats()}
    ).items() if k.endswith("busy_pct")]
    assert all(v >= 0 for v in busy) and sum(busy) <= 100.0 + 1e-6


def test_times_are_scaled_to_nominal_host_speed():
    slow_host = {"setup_s": 1.0, "wall_s": 4.0, "units": 100, "peak_rss_mb": 50.0,
                 "kernel_s": 2 * run.NOMINAL_KERNEL_S}
    values = run.end_to_end([slow_host])
    assert values == {"setup_s": 0.5, "wall_s": 2.0, "throughput_per_s": 50.0,
                      "peak_rss_mb": 50.0}


def test_nested_spans_split_self_time():
    tracer = tracing.Tracer("nested")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.finish()
    trace = tracing.reduce(tracer)
    assert trace.calls == {"outer": 1, "inner": 1, "workload": 1}
    assert sum(trace.self_s.values()) == pytest.approx(trace.wall_s)
    inner, outer = trace.spans[1], trace.spans[0]
    assert inner["parent"] == 0 and outer["parent"] == -1
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


BASE = [10.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize(
    ("change", "better", "bound", "verdict"),
    [
        (BASE, "lower", 0.1, "unchanged"),
        ([v * 0.8 for v in BASE], "lower", 0.1, "improved"),
        ([v * 1.2 for v in BASE], "lower", 0.1, "regressed"),
        ([v * 1.05 for v in BASE], "lower", 0.1, "unchanged"),
        ([v * 1.2 for v in BASE], "higher", 0.1, "improved"),
        ([v * 0.8 for v in BASE[:5]], "lower", 0.1, "unchanged"),  # < 10 pairs
        ([v * 1.2 for v in BASE], "lower", None, "worsened"),
    ],
)
def test_compare_verdicts(change, better, bound, verdict):
    assert compare.judge(BASE, change, better, bound).verdict == verdict


NOISY = [10.0, 14.0, 9.0, 13.0, 10.5, 15.0, 9.5, 12.0, 11.0, 14.5]


def test_compare_calls_a_noisy_metric_unresolved():
    assert compare.judge(NOISY, NOISY, "lower", 0.1).verdict == "unresolved"
    every_run_better = [v - 7.0 for v in NOISY]
    assert compare.judge(NOISY, every_run_better, "lower", 0.1).verdict == "improved"


def test_compare_reports_a_regression_however_noisy_the_parent():
    worse = [v * 1.5 for v in NOISY]
    assert compare.judge(NOISY, worse, "lower", 0.1).verdict == "regressed"
    assert compare.judge(NOISY, [v / 1.5 for v in NOISY], "higher", 0.1).verdict == "regressed"


def test_compare_reads_run_records(tmp_path):
    def records(path: Path, factor: float) -> None:
        with open(path, "w") as handle:
            for i, base in enumerate(BASE):
                metrics = {m["name"]: {"value": base * factor, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                handle.write(json.dumps({
                    "workload": "lint-audit", "seed": i, "trace": 0, "size": "bench",
                    "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
                }) + "\n")

    records(tmp_path / "a.jsonl", 1.0)
    records(tmp_path / "b.jsonl", 1.5)
    lines, regressed = compare.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl", 0, SPEC)
    rows = {line.split()[1]: line.split()[-1] for line in lines[1:]}
    assert rows["wall_s"] == "regressed" and rows["throughput_per_s"] == "improved"
    assert regressed == len(SPEC["end_to_end"]) - 1
