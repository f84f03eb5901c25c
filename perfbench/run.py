"""The capax benchmark: run the ``capax`` CLI on a workload and report metrics.

    python3 perfbench/run.py --workload dp-route --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55 --trace 0

Run from the root of a source checkout; capax is imported from ``src/``.

--trace 0 runs the workload's invocations one after another as
subprocesses (a closed loop with one client) for about --seconds, and
reports the end-to-end metrics from BENCHMARK.json.  Their times are in
reference seconds: the shared machine this runs on changes speed by up to
half, for a second to minutes at a time, so a fixed pure-Python loop
(reference_s) is timed between children, and each child's wall and CPU
time is scaled by REF_NOMINAL_S over the mean of the loop times right
before and right after it.  The measured seconds are printed next to
them and kept in the result file.

--trace 1 runs whole passes in-process through ``capax.cli.main``,
alternating an untraced and a traced fresh process, and reports the
per-layer metrics; the difference of their wall times is the tracing
overhead.  --smoke shrinks every kmax so the whole run takes seconds.

Every invocation's exit code and stdout are checked (see workloads.check).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A result file with the environment goes to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # imports before the first pass; one more follows every pass
DEADLINE_S = 170.0  # a run must end within 180 s; stop children before that
REF_NOMINAL_S = 0.1  # reference_s() on an unloaded 2.1 GHz Xeon vCPU, Python 3.11


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that uses nothing of capax:
    the machine's speed at this moment.  Never change it, or times measured
    before and after the change no longer compare."""
    t0 = time.perf_counter()
    for _ in range(5):
        s = 0
        for i in range(200000):
            s += i * i % 7
    return time.perf_counter() - t0


class SetupError(Exception):
    pass


class Run:
    """One benchmark run in a checkout: work directory, env and deadline."""

    def __init__(self, root: Path, workload: str, seed: int, size: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.t_start = time.monotonic()
        src = root / "src"
        if not (src / "capax" / "cli.py").is_file():
            raise SetupError(f"no capax sources under {src}")
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.base = root / ".bench_build" / "perfbench"
        self.work = self.base / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.digests = workloads.load_digests()
        self.refs = [reference_s()]  # at the start, then after each child

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    # -- set-up ------------------------------------------------------------

    def check_import(self):
        """First import (writes the bytecode cache) and a check that capax
        resolves to this checkout."""
        code = "import capax.cli; print(capax.cli.__file__)"
        p = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.work,
                           capture_output=True, text=True, timeout=self.remaining())
        path = Path(p.stdout.strip() or "/nonexistent").resolve()
        if p.returncode != 0 or self.src.resolve() not in path.parents:
            raise SetupError(f"capax.cli does not import from {self.src}: {p.stderr.strip()}")

    def setup_times(self, n: int) -> list[dict]:
        """Wall time of `import capax.cli` in n fresh interpreters."""
        return [self.child([sys.executable, "-c", "import capax.cli"], subprocess.DEVNULL,
                           subprocess.DEVNULL) for _ in range(n)]

    # -- one child process, timed --------------------------------------------

    def child(self, cmd, stdout, stderr) -> dict:
        """Run cmd to its end; its exit code, max-RSS, and wall and CPU
        time both measured and in reference seconds."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr)
        killer = threading.Timer(max(self.remaining(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)  # blocks: no polling step in the time
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        self.refs.append(reference_s())
        scale = REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
        cpu = ru.ru_utime + ru.ru_stime
        return {"exit": os.waitstatus_to_exitcode(status), "rss_mb": ru.ru_maxrss / 1024.0,
                "wall_s": wall * scale, "cpu_s": cpu * scale,
                "measured_wall_s": wall, "measured_cpu_s": cpu}

    def spawn(self, inv: workloads.Invocation, tag: str) -> dict:
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        cmd = [sys.executable, "-m", "capax.cli", *inv.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            row = self.child(cmd, out, err)
        row["stdout"] = out_path.read_bytes()
        return row

    def checked(self, inv, exit_code: int, stdout: bytes, stderr: Path) -> str | None:
        key = workloads.digest_key(inv, self.work)
        problem = workloads.check(inv, exit_code, stdout, key, self.digests)
        last = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        return f"{problem}; stderr: {last[0]}" if problem and last else problem

    # -- passes --------------------------------------------------------------

    def subprocess_pass(self, invs) -> dict:
        rows = [self.spawn(inv, str(i)) for i, inv in enumerate(invs)]
        for i, (inv, row) in enumerate(zip(invs, rows)):
            row["error"] = self.checked(inv, row["exit"], row.pop("stdout"),
                                        self.work / f"{i}.err")
            row["argv"] = " ".join(inv.argv)
        out = {k: sum(r[k] for r in rows)
               for k in ("wall_s", "cpu_s", "measured_wall_s", "measured_cpu_s")}
        return {**out, "peak_rss_mb": max(r["rss_mb"] for r in rows), "invocations": rows}

    def inproc_pass(self, invs, traced: bool, index: int) -> dict:
        outdir = self.work / f"inproc-{index}"
        outdir.mkdir()
        spec = outdir / "spec.json"
        spec.write_text(json.dumps([list(inv.argv) for inv in invs]), encoding="utf-8")
        mode = "traced" if traced else "plain"
        p = subprocess.run([sys.executable, str(HERE / "inproc.py"), str(spec), str(outdir), mode],
                           cwd=self.work, env=self.env, capture_output=True, text=True,
                           timeout=max(self.remaining(), 1.0))
        if p.returncode != 0:
            raise RuntimeError(f"in-process pass failed: {p.stderr.strip()[-400:]}")
        report = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
        for i, (inv, row) in enumerate(zip(invs, report["invocations"])):
            row["error"] = self.checked(inv, row["exit"], (outdir / f"{i}.out").read_bytes(),
                                        outdir / f"{i}.err")
            row["argv"] = " ".join(inv.argv)
        if traced:
            spans = self.base / f"spans-{self.workload}.jsonl"
            shutil.copyfile(outdir / "spans.jsonl", spans)
            report["spans_file"] = str(spans.relative_to(self.root))
        return report


def end_to_end(run: Run, invs, seconds: float) -> tuple[dict, list, dict]:
    setup = run.setup_times(SETUP_REPEATS)
    passes, took = [], 0.0
    t0 = time.monotonic()
    # stop when one more pass would run past --seconds by over half a pass,
    # so a run lasts about --seconds whatever a pass costs
    while not passes or (time.monotonic() - t0 + took / 2 < seconds and run.remaining() > 0):
        t = time.monotonic()
        passes.append(run.subprocess_pass(invs))
        setup += run.setup_times(1)
        took = time.monotonic() - t

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    values = sum(inv.kmax + 1 for inv in invs)
    metrics = {
        "wall_s": wall,
        "cpu_s": med("cpu_s", passes),
        "setup_s": med("wall_s", setup),
        "values_per_s": values / wall,
        "peak_rss_mb": med("peak_rss_mb", passes),
    }

    def note(rows, unit):
        w = [r["wall_s"] for r in rows]
        return (f"median of {len(w)} {unit}, max {max(w):.4f}; measured "
                f"{med('measured_wall_s', rows):.4f} s")

    notes = {"wall_s": note(passes, "passes"),
             "cpu_s": f"measured {med('measured_cpu_s', passes):.4f} s",
             "setup_s": note(setup, "imports"),
             "values_per_s": f"{values} values per pass / wall_s",
             "peak_rss_mb": "largest max-RSS of a pass, median over passes"}
    print(f"reference loop: median {statistics.median(run.refs):.4f} s of {len(run.refs)}, "
          f"nominal {REF_NOMINAL_S} s")
    return metrics, passes, {"setup_samples": setup, "notes": notes, "reference_s": run.refs,
                             "ref_nominal_s": REF_NOMINAL_S}


def per_layer(run: Run, invs, seconds: float) -> tuple[dict, list, dict]:
    plain, traced = [], []
    t0 = time.monotonic()
    while not traced or (time.monotonic() - t0 < seconds and run.remaining() > 0):
        i = len(traced)
        order = (False, True) if i % 2 == 0 else (True, False)  # alternate which runs first
        for j, on in enumerate(order):
            (traced if on else plain).append(run.inproc_pass(invs, on, 2 * i + j))
    layers = [p["layers"] for p in traced]
    metrics = {name: statistics.median(lay[name] for lay in layers)
               for name in tracer.time_metrics()}
    counts = {name: layers[0][name] for name in tracer.count_metrics()}
    unsteady = [n for n in counts if any(lay[n] != counts[n] for lay in layers)]
    metrics.update(counts)
    # each traced pass runs next to its untraced twin, so their difference sees
    # one machine state; the median of those differences is the overhead
    metrics.update({
        "trace.wall_s": statistics.median(p["wall_s"] for p in traced),
        "trace.untraced_wall_s": statistics.median(p["wall_s"] for p in plain),
        "trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"]
                                              for p, t in zip(plain, traced)),
        "trace.spans": traced[0]["spans"]})
    extra = {"nondeterministic_counters": unsteady,
             "spans_file": traced[-1]["spans_file"],
             "notes": {"trace.overhead_s": f"median over {len(traced)} pairs of traced minus "
                                           "untraced in-process pass"}}
    return metrics, plain + traced, extra


def _environment(root: Path) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    lines = sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "src_lines": lines}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    run = Run(root, name, seed, "tiny" if smoke else "full")
    try:
        invs = workloads.build(name, seed, run.size, run.work)
        run.check_import()
        measure = per_layer if trace else end_to_end
        metrics, passes, extra = measure(run, invs, seconds)
    finally:
        run.close()
    rows = [r for p in passes for r in p["invocations"]]
    failures = [r for r in rows if r["error"]]
    unsteady = extra.get("nondeterministic_counters", [])
    env = _environment(root)
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "size": run.size,
        "seconds": seconds, **env, "passes": len(passes),
        "invocations_per_pass": len(invs), "attempted": len(rows), "failed": len(failures),
        "fail_ratio": len(failures) / len(rows),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra, "pass_details": passes,
    }
    results = run.base / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{run.size}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name}  seed {seed}  size {run.size}  trace {int(trace)}  "
          f"passes {len(passes)}  invocations/pass {len(invs)}")
    print(f"env  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  src_lines {env['src_lines']}")
    notes = extra.get("notes", {})
    for k, m in result["metrics"].items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:34s} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':34s} {result['fail_ratio']:>14.6g} ratio"
          f"  ({len(failures)} of {len(rows)} invocations failed)")
    for r in failures[:10]:
        print(f"  FAIL {r['argv']}: {r['error']}")
    for n in unsteady:
        print(f"  FAIL counter {n} differs between traced passes")
    print(f"result file {path.relative_to(root)}")
    return {"correct": not failures and not unsteady, "attempted": len(rows),
            "failed": len(failures), "metrics": result["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny kmax, for the self-test")
    ns = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print(f"run.py: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    for name in names:
        try:
            out = run_workload(root, name, ns.seed, ns.seconds, bool(ns.trace), ns.smoke)
        except SetupError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
