"""One pass of a workload in a single process, through ``capax.cli.main``.

Usage: python3 inproc.py SPEC OUTDIR {plain,traced}

SPEC is a JSON list of argv lists.  Each invocation's stdout goes to
OUTDIR/<i>.out and its stderr to OUTDIR/<i>.err; OUTDIR/result.json holds
exit codes, per-invocation wall times and, when traced, the per-layer
metrics.  Traced passes also write their spans to OUTDIR/spans.jsonl.
Run from the directory holding the workload's input files, with capax on
PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def _call(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counts as a failed invocation; keep the pass going
        traceback.print_exc()
        return 1


def run(spec: list[list[str]], outdir: Path, traced: bool) -> dict:
    import capax.cli

    tracer = Tracer()
    if traced:
        tracer.install()
    results = []
    for i, argv in enumerate(spec):
        tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _call(capax.cli.main, argv)
        wall = time.perf_counter() - t0
        data = out.getvalue().encode("utf-8")
        tracer.counters["cli.bytes_out"] += len(data)
        (outdir / f"{i}.out").write_bytes(data)
        (outdir / f"{i}.err").write_text(err.getvalue(), encoding="utf-8")
        results.append({"exit": code, "wall_s": wall})
    report = {"invocations": results, "wall_s": sum(r["wall_s"] for r in results)}
    if traced:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.spans)
        tracer.write(outdir / "spans.jsonl")
    return report


def main() -> int:
    spec_path, outdir, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    report = run(spec, outdir, mode == "traced")
    (outdir / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
