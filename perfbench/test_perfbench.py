"""Self-tests of the benchmark at minimum size.

Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider

They check the benchmark, not the program: every printed metric name and
unit matches ``BENCHMARK.json``, the traced run's layer accounting
closes, planted faults trip the gates and the exit code, and the command
refuses to produce a result without the program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-mobile", "sparse-mute", "service-dsa")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(*args, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def test_benchmark_json_shape():
    spec = load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["name"] not in names
        names.add(metric["name"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    spec = load_benchmark()
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc, result = run("--workload", workload, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    for name, metric in result["metrics"].items():
        # The human-readable table names every metric with its unit.
        unit = re.escape(metric["unit"])
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{unit}$",
                         proc.stdout, re.M)
    if trace == "1":
        metrics = result["metrics"]
        layers = sum(value["value"] for name, value in metrics.items()
                     if name.endswith(".self_s"))
        assert layers == pytest.approx(metrics["trace.wall_s"]["value"],
                                       rel=1e-6)


def test_planted_record_mismatch_fails_the_run():
    proc, result = run("--workload", "sparse-mute", "--trace", "0",
                       "--smoke", "--plant", "record-mismatch")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "record digest" in proc.stderr


def test_planted_record_mismatch_fails_the_traced_run():
    proc, result = run("--workload", "dense-mobile", "--trace", "1",
                       "--smoke", "--plant", "record-mismatch")
    assert proc.returncode == 1
    assert result["correct"] is False


def test_planted_failed_job_fails_the_run():
    proc, result = run("--workload", "service-dsa", "--trace", "0",
                       "--smoke", "--plant", "failed-job")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "cold job" in proc.stderr


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run("--workload", "sparse-mute", "--trace", "0",
                       cwd=tmp_path,
                       script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert result is None


def test_host_reference_scales_by_its_median_pass():
    sys.path.insert(0, HERE)
    import gc
    import hostref

    host = hostref.HostReference(cells=100, steps=100)
    passes = [host.measure() for _ in range(3)]
    assert gc.isenabled()
    assert host.passes == passes and all(p > 0 for p in passes)
    assert host.scale() == pytest.approx(
        hostref.NOMINAL_PASS_S / sorted(passes)[1])
