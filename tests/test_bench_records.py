"""The committed benchmark records: every root BENCH_*.json parses and
holds, per workload, the seeds, the parent and change medians with their
quartiles for every end-to-end metric of BENCHMARK.json, the pair wins,
and the src/ line counts."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_shape(path):
    rec = json.loads(path.read_text(encoding="utf-8"))
    assert rec["tag"] == path.stem.removeprefix("BENCH_")
    assert {"workload", "metric"} <= rec["claim"].keys()
    assert rec["claim"]["workload"] in rec["workloads"]
    assert rec["claim"]["metric"] in END_TO_END
    for side in ("parent", "change"):
        assert isinstance(rec["src_lines"][side], int) and rec["src_lines"][side] > 0
    for name, wl in rec["workloads"].items():
        seeds = wl["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds), name
        assert wl["pairs"] == len(seeds)
        for side in ("parent", "change"):
            assert wl["failed"][side] == 0, (name, side)
        assert set(END_TO_END) <= wl["metrics"].keys(), name
        for metric in END_TO_END:
            m = wl["metrics"][metric]
            for side in ("parent", "change"):
                s = m[side]
                assert s["q1"] <= s["median"] <= s["q3"], (name, metric, side)
                assert len(s["runs"]) == len(seeds)
            assert 0 <= m["wins"] <= wl["pairs"], (name, metric)
