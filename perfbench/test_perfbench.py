"""Self-test of the benchmark at smoke size.

    python3 -m pytest perfbench/test_perfbench.py

Every workload, untraced and traced, must print every declared metric by
name with its unit, check all outputs and fail none of them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
             "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = [line.split() for line in p.stdout.splitlines()]
    result = json.loads(p.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    printed = {row[0]: row[2] for row in lines if len(row) >= 3 and row[0] in declared}
    assert printed == declared
    assert [row[1:3] for row in lines if row[:1] == ["fail_ratio"]] == [["0", "ratio"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_default_seed_outputs_have_digests(tmp_path):
    digests = workloads.load_digests()
    for size in ("full", "tiny"):
        for name in workloads.WORKLOADS:
            work = tmp_path / f"{name}-{size}"
            work.mkdir()
            for inv in workloads.build(name, workloads.DEFAULT_SEED, size, work):
                assert workloads.digest_key(inv, work) in digests


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        d.mkdir()
        workloads.build("dp-route", seed, "tiny", d)
    same = [(a / f).read_bytes() == (b / f).read_bytes() for f in ("rand-0.json", "rand-3.json")]
    assert all(same)
    assert (a / "rand-0.json").read_bytes() != (c / "rand-0.json").read_bytes()


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "enum-io", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout == ""
