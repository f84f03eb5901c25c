"""Workload definitions, seeded inputs and output checks for the capax benchmark.

A workload is a fixed list of ``capax`` invocations (one pass).  Inputs
are the JSON files under ``inputs/`` plus random rational convex polygons
drawn from the run's seed; the CLI only ever sees the written files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    kmax: int  # the invocation computes c_0..c_kmax
    expect_exit: int = 0


# A workload builder takes (seed, size), size "full" or "tiny", and returns
# the pass's invocations plus the generated input files {name: JSON object}.

def _sized(size: str, full: int, tiny: int) -> int:
    return full if size == "full" else tiny


def _convex_scan(seed: int, size: str):
    polys = random_polygons(f"convex-scan:{seed}", 4)
    k_fig, k_p6 = _sized(size, 20000, 200), _sized(size, 5000, 100)
    invs = [
        Invocation(("errors", "--domain", "@fig.json", "--kmax", str(k_fig)), k_fig),
        Invocation(("errors", "--domain", "@p6.json", "--kmax", str(k_p6)), k_p6),
    ]
    # 1000, not 5000: at 5000 one random polygon costs 0.7-4.8 s, which would
    # make the pass time depend on the seed more than on the code.
    k = _sized(size, 1000, 50)
    invs += [Invocation(("errors", "--domain", f"@{name}", "--kmax", str(k)), k)
             for name in polys]
    return invs, polys


def _oracle(seed: int, size: str):
    polys = random_polygons(f"oracle:{seed}", 2)
    k_p6, k_fig = _sized(size, 120, 10), _sized(size, 60, 10)
    invs = [
        Invocation(("capacities", "--domain", "@p6.json", "--kmax", str(k_p6), "--oracle"), k_p6),
        Invocation(("capacities", "--domain", "@fig.json", "--kmax", str(k_fig), "--oracle"), k_fig),
    ]
    # 30, not 60: at 60 the enumeration on one random polygon takes 0.2-1.5 s
    # in-process, so the seed would move the pass time more than the code.
    k = _sized(size, 30, 10)
    invs += [Invocation(("capacities", "--domain", f"@{name}", "--kmax", str(k), "--oracle"), k)
             for name in polys]
    return invs, polys


def _quad_field(seed: int, size: str):
    kc, kv = _sized(size, 20, 3), _sized(size, 100, 10)
    return [
        Invocation(("capacities", "--domain", "@golden_convex.json", "--kmax", str(kc),
                    "--eps", "1e-6"), kc),
        Invocation(("capacities", "--domain", "@golden_concave.json", "--kmax", str(kv),
                    "--eps", "1e-8"), kv),
    ], {}


def _closed_form_io(seed: int, size: str):
    kb, ke = _sized(size, 100000, 1000), _sized(size, 50000, 500)
    ks, ko = _sized(size, 2000, 50), _sized(size, 500, 20)
    return [
        Invocation(("capacities", "--domain", "ball:1", "--kmax", str(kb)), kb),
        Invocation(("capacities", "--domain", "ball:1", "--kmax", str(kb), "--threads", "2"), kb),
        Invocation(("capacities", "--domain", "ellipsoid:1,2", "--kmax", str(ke)), ke),
        Invocation(("capacities", "--domain", "@concave.json", "--kmax", str(ke),
                    "--format", "csv"), ke),
        Invocation(("capacities", "--domain", "square:1", "--kmax", str(ks)), ks),
        Invocation(("obstruct", "--from", "ellipsoid:1,phi", "--to", "ball:sqrt_phi",
                    "--kmax", str(ko), "--backend", "float"), ko, expect_exit=2),
    ], {}


def _joined(*parts):
    def build(seed: int, size: str):
        invs, files = [], {}
        for part in parts:
            more, generated = part(seed, size)
            assert not files.keys() & generated.keys(), "input file names collide"
            invs += more
            files.update(generated)
        return invs, files
    return build


# Two workloads, not four: on a shared 2-vCPU machine a run of one workload
# needs about a minute of passes before its median is steady, and the time
# for all runs allows that for two.  Each ROADMAP layer still has one
# workload where it does most of the work and one where it does none:
# dp-route runs the convex scan and Quad arithmetic, enum-io the nef
# enumeration, the closed forms and large outputs.
WORKLOADS = {
    "dp-route": _joined(_convex_scan, _quad_field),
    "enum-io": _joined(_oracle, _closed_form_io),
}


def build(name: str, seed: int, size: str, workdir: Path) -> list[Invocation]:
    """Write the workload's input files into `workdir` and return its pass."""
    invs, generated = WORKLOADS[name](seed, size)
    for src in INPUTS.glob("*.json"):
        shutil.copyfile(src, workdir / src.name)
    for fname, obj in generated.items():
        (workdir / fname).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return invs


# ---------------------------------------------------------------------------
# seeded random rational convex polygons
# ---------------------------------------------------------------------------

def _convex_hull(pts):
    pts = sorted(set(pts))

    def half(ps):
        out = []
        for p in ps:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def random_polygon(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Convex polygon with axis contacts, 4-6 vertices, denominators <= 4.

    The extra points lie strictly inside the box [0,a) x [0,b), so the hull
    starts at the origin, leaves along the x-axis and returns along the
    y-axis: every polygon drawn here is a valid convex domain."""
    zero = Fraction(0)
    while True:
        a = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
        b = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
        pts = [(zero, zero), (a, zero), (zero, b)]
        for _ in range(rng.randint(1, 3)):
            x = Fraction(rng.randint(1, 4 * int(a) + 3), 4)
            y = Fraction(rng.randint(1, 4 * int(b) + 3), 4)
            if x < a and y < b:
                pts.append((x, y))
        hull = _convex_hull(pts)
        if 4 <= len(hull) <= 6:
            return hull


def random_polygons(stream: str, count: int) -> dict[str, dict]:
    rng = random.Random(stream)
    out = {}
    for i in range(count):
        hull = random_polygon(rng)
        out[f"rand-{i}.json"] = {"kind": "polygon", "orientation": "convex",
                                 "vertices": [[str(x), str(y)] for x, y in hull]}
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest_key(inv: Invocation, workdir: Path) -> str:
    """The argv with each @file tagged by its content hash, so a recorded
    stdout digest applies exactly to the inputs it was recorded from."""
    parts = []
    for a in inv.argv:
        if a.startswith("@"):
            h = hashlib.sha256((workdir / a[1:]).read_bytes()).hexdigest()[:16]
            a = f"{a}#{h}"
        parts.append(a)
    return " ".join(parts)


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check(inv: Invocation, exit_code: int, stdout: bytes, key: str,
          digests: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    if exit_code != inv.expect_exit:
        return f"exit code {exit_code}, expected {inv.expect_exit}"
    want = digests.get(key)
    if want is not None:
        got = hashlib.sha256(stdout).hexdigest()
        return None if got == want else f"stdout sha256 {got[:12]} != recorded {want[:12]}"
    try:
        return _check_structure(inv, stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _scalar(text: str, field_d: int | None) -> float:
    """Float value of a formatted scalar: "p/q", a float repr or "p/q+r/s*sqrt"."""
    if text.endswith("*sqrt"):
        body = text[: -len("*sqrt")]
        cut = max(body.rfind("+"), body.rfind("-"))
        head, coef = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
        return float(Fraction(head)) + float(Fraction(coef)) * math.sqrt(field_d)
    return float(Fraction(text))


def _series_problem(values: list[float], kmax: int) -> str | None:
    if len(values) != kmax + 1:
        return f"{len(values)} values for kmax {kmax}"
    if values[0] != 0.0:
        return "series does not start at 0"
    if any(not math.isfinite(v) for v in values):
        return "non-finite value"
    for k in range(1, len(values)):
        if values[k] < values[k - 1] - 1e-9:
            return f"series decreases at k={k}"
    return None


def _check_structure(inv: Invocation, text: str) -> str | None:
    cmd = inv.argv[0]
    if cmd == "capacities" and "csv" in inv.argv:
        rows = [line.split(",") for line in text.splitlines()[2:]]
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            return "csv rows out of order"
        return _series_problem([_scalar(r[1], None) for r in rows], inv.kmax)
    obj = json.loads(text)
    if cmd == "capacities":
        if obj["schema"] != "capax.capacities.v1":
            return f"schema {obj['schema']!r}"
        if "--oracle" in inv.argv and obj["meta"].get("oracle") != "verified":
            return "oracle not verified"
        backend = obj["backend"]
        field_d = int(backend.split(":")[1]) if backend.startswith("sqrt:") else None
        return _series_problem([_scalar(v, field_d) for v in obj["values"]], inv.kmax)
    if cmd == "errors":
        win = obj["window"]
        lo, mid, hi = float(win["min"]), float(win["mid"]), float(win["max"])
        if not (math.isfinite(lo) and lo <= mid <= hi and math.isfinite(hi)):
            return f"bad window extrema {win!r}"
        if obj.get("band") and not obj["band"][0] <= obj["band"][1]:
            return f"band {obj['band']!r} is not an interval"
        return None
    if cmd == "obstruct":
        return None if obj["verdict"] == "OBSTRUCTED" else f"verdict {obj['verdict']!r}"
    return f"no check for command {cmd!r}"
