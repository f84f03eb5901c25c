"""The ``capax`` command line.

Commands: weights | capacities | errors | bounds | tower | obstruct |
selfcheck.  Exit codes: 0 ok/inconclusive, 1 error, 2 obstructed.
Identical invocations produce byte-identical output.  --threads is
accepted and has no effect: every series is computed in one thread, and
the convex route runs one infimum scan for every numeric backend.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import asymptotics, capacities, domains, obstructions, tower, weights
from .errors import CapaxError
from .scalars import sfloat

CSV_HEADER = "# capax-csv v1"

_FLOAT_CONSTANTS = {
    "phi": (1 + math.sqrt(5.0)) / 2,
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "sqrt_phi": math.sqrt((1 + math.sqrt(5.0)) / 2),
}


def _scalar_arg(text: str, backend: str, eps: float):
    text = text.strip()
    if text in _FLOAT_CONSTANTS:
        if backend != "float":
            raise CapaxError(f"constant {text!r} needs --backend float")
        return _FLOAT_CONSTANTS[text]
    if backend == "float":
        return float(Fraction(text)) if "/" in text else float(text)
    return text  # parsed downstream with the backend's field


_ARITY = {"ball": 1, "ellipsoid": 2, "square": 1, "quarter_disk": 1, "superellipse": 2}


def parse_domain(spec: str, backend: str = "exact", eps: float = 1e-9) -> domains.DomainDescriptor:
    """Inline shorthands (ball:a, ellipsoid:a,b, square:s, quarter_disk:r,
    superellipse:p,r, weights:c;w1,w2) or @file.json.

    Malformed input raises CapaxError: an unreadable file, a wrong number
    of arguments, a malformed number or JSON document, a bad field."""
    try:
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return domains.descriptor_from_json(json.load(fh))
        if ":" not in spec:
            raise CapaxError(f"domain spec {spec!r}: expected kind:args or @file.json")
        kind, rest = spec.split(":", 1)
        args = [a for a in rest.split(",") if a]
        if len(args) < _ARITY.get(kind, 0):
            raise CapaxError(f"domain spec {spec!r}: {kind} needs {_ARITY[kind]} "
                             f"argument(s), got {len(args)}")
        val = lambda s: _scalar_arg(s, backend, eps)
        if kind == "ball":
            return domains.ball(val(args[0]), backend=backend, eps=eps)
        if kind == "ellipsoid":
            return domains.ellipsoid(val(args[0]), val(args[1]), backend=backend, eps=eps)
        if kind == "square":
            return domains.square(val(args[0]), backend=backend, eps=eps)
        if kind == "quarter_disk":
            return domains.quarter_disk(Fraction(args[0]), eps=eps)
        if kind == "superellipse":
            return domains.superellipse(Fraction(args[0]), Fraction(args[1]), eps=eps)
        if kind == "polygon":
            return domains.descriptor_from_json(json.loads(rest))
        if kind == "weights":
            head, _, tail = rest.partition(";")
            ws = [val(w) for w in tail.split(",") if w]
            return domains.weight_list(val(head) if head else None, ws,
                                       backend=backend, eps=eps)
    except OSError as exc:
        raise CapaxError(f"cannot read domain file {spec[1:]!r}: {exc.strerror}") from exc
    except (KeyError, ValueError) as exc:  # missing JSON key, malformed number or field
        raise CapaxError(f"domain spec {spec!r}: {exc}") from exc
    raise CapaxError(f"unknown domain shorthand {kind!r}")


def _limits(ns) -> weights.TruncationLimits:
    return weights.TruncationLimits(max_depth=ns.depth, eps=ns.eps)


def _emit(ns, text: str):
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_weights(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    if d.kind == "curve":
        d = domains.inner_grid_polygon(d, 32).polygon
        if ns.eps is None:
            ns.eps = 1e-9
        if ns.depth is None:
            ns.depth = 512
    if d.kind == "ellipsoid" and d.a != d.b:
        tree = weights.concave_weights(d, _limits(ns))  # ball decomposition
    elif d.is_convex():
        tree = weights.convex_weights(d, _limits(ns))
    else:
        tree = weights.concave_weights(d, _limits(ns))
    if ns.format == "csv":
        _emit(ns, weights.weights_to_csv(tree))
    else:
        _emit(ns, _dump_json(weights.tree_to_json(tree)))
    return 0


def cmd_capacities(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    series = capacities.series_for_domain(d, ns.kmax, _limits(ns))
    if ns.oracle:
        if not d.is_convex():
            raise CapaxError("--oracle needs a convex domain")
        tree = weights.convex_weights(d, _limits(ns))
        tw = tower.build_tower(tree)
        mismatches = []
        for k in range(series.kmax + 1):
            res = capacities.tower_capacity(tw, k)
            # certified intervals from the two routes must intersect;
            # with exact data both are points and this is equality
            if res.bracket[1] < series.lo(k) - 1e-9 or res.bracket[0] > series.hi(k) + 1e-9:
                mismatches.append((k, sfloat(series.value(k)), sfloat(res.value)))
        if mismatches:
            for k, want, got in mismatches:
                print(f"oracle mismatch at k={k}: fast={want} enum={got}", file=sys.stderr)
            return 1
        series.meta["oracle"] = "verified"
    if ns.format == "csv":
        _emit(ns, series.to_csv())
    else:
        _emit(ns, _dump_json(series.to_json()))
    return 0


def _window(ns, default_hi):
    if ns.window:
        k0, _, k1 = ns.window.partition(":")
        return int(k0), int(k1)
    return max(1, default_hi // 10), default_hi


def cmd_errors(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    series = capacities.series_for_domain(d, ns.kmax, _limits(ns))
    profile = domains.validate(d)
    has_geometry = profile.a is not None
    band = asymptotics.band_for_profile(profile) if has_geometry else None
    err = asymptotics.error_series(series, sfloat(domains.area(d)), band=band)
    if ns.format == "csv":
        _emit(ns, err.to_csv())
        return 0
    win = _window(ns, series.kmax)
    stats = asymptotics.window_extrema(err, win)
    out = {"schema": "capax.errors.v1",
           "window": {"k0": win[0], "k1": win[1], "min": stats.minimum,
                      "max": stats.maximum, "mid": stats.midpoint}}
    if has_geometry:
        inv = asymptotics.edge_invariants(profile)
        report = asymptotics.convergence_verdict(profile, inv, err, win)
        out.update(report.to_json())
    _emit(ns, _dump_json(out))
    return 0


def cmd_bounds(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    profile = domains.validate(d)
    band = asymptotics.band_for_profile(profile)
    inv = asymptotics.edge_invariants(profile)
    out = {
        "schema": "capax.bounds.v1",
        "band": [band.lower, band.upper],
        "mid": band.mid,
        "a": sfloat(profile.a),
        "b": sfloat(profile.b),
        "affine_length_plus": sfloat(profile.total_affine_plus),
        "N_rational_edges": inv.n_rational,
        "v_rank": inv.v_rank,
    }
    if ns.format == "csv":
        lines = [f"{CSV_HEADER} bounds", "band_lower,band_upper,mid",
                 f"{band.lower!r},{band.upper!r},{band.mid!r}"]
        _emit(ns, "\n".join(lines) + "\n")
    else:
        _emit(ns, _dump_json(out))
    return 0


def cmd_tower(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    if not d.is_convex():
        raise CapaxError("tower construction needs a convex domain")
    tree = weights.convex_weights(d, _limits(ns))
    tw = tower.build_tower(tree)
    dump = tower.tower_dump(tw)
    if ns.format == "csv":
        lines = [f"{CSV_HEADER} tower", "n,A2,minus_K_dot_A,minus_Kplus_dot_A,F"]
        for lv in dump["levels"]:
            lines.append(f"{lv['n']},{lv['A2']},{lv['minus_K_dot_A']},"
                         f"{lv['minus_Kplus_dot_A']},{lv['F']}")
        _emit(ns, "\n".join(lines) + "\n")
    else:
        _emit(ns, _dump_json(dump))
    return 0


def cmd_obstruct(ns) -> int:
    d_from = parse_domain(ns.domain_from, ns.backend, ns.eps_backend)
    d_to = parse_domain(ns.domain_to, ns.backend, ns.eps_backend)
    report = obstructions.obstruct(d_from, d_to, ns.kmax, _limits(ns))
    _emit(ns, _dump_json(report.to_json()))
    return report.exit_code


def cmd_selfcheck(ns) -> int:
    checks = []

    fig = domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex")
    t = weights.convex_weights(fig)
    ws = sorted(sfloat(w) for w in t.weight_multiset())
    checks.append(("figure polygon weights (5;1,1,1)",
                   sfloat(t.head) == 5.0 and ws == [1.0, 1.0, 1.0]))

    sq = capacities.square_capacities(Fraction(1), 8)
    checks.append(("square capacities 0..8",
                   [sfloat(v) for v in sq.values] == [0, 1, 2, 2, 3, 3, 4, 4, 4]))

    ball = capacities.ball_capacities(Fraction(1), 6)
    checks.append(("ball capacities 0..6",
                   [sfloat(v) for v in ball.values] == [0, 1, 1, 2, 2, 2, 3]))

    e12 = capacities.ellipsoid_capacities(Fraction(1), Fraction(2), 5)
    checks.append(("E(1,2) capacities 0..5",
                   [sfloat(v) for v in e12.values] == [0, 1, 2, 2, 3, 3]))

    tri = domains.polygon([(0, 0), (2, 0), (0, 1)], "concave")
    conc = capacities.concave_capacity(tri, 10)
    oracle = capacities.ellipsoid_capacities(Fraction(1), Fraction(2), 10)
    checks.append(("concave triangle equals E(1,2)",
                   [sfloat(v) for v in conc.values] == [sfloat(v) for v in oracle.values]))

    c1 = capacities.convex_capacity(fig, 1)
    checks.append(("figure polygon c_1 = 4", sfloat(c1.value(1)) == 4.0))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, domain: bool = True):
    if domain:
        p.add_argument("--domain", required=True,
                       help="ball:a | ellipsoid:a,b | square:s | quarter_disk:r | "
                            "superellipse:p,r | weights:c;w1,w2 | @file.json")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--depth", type=int, default=None, help="recursion depth limit")
    p.add_argument("--eps", type=float, default=None, dest="eps",
                   help="weight truncation threshold")
    p.add_argument("--backend", default="exact",
                   help="exact | sqrt:d | float")
    p.add_argument("--eps-backend", type=float, default=1e-9,
                   help="absolute tolerance attached to float scalars")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--window", default=None, help="k0:k1 for window statistics")
    p.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="capax",
                                 description="capacities of toric domains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="weight expansion of a domain")
    _add_common(p)
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("capacities", help="capacity sequence c_0..c_kmax")
    _add_common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the nef enumeration")
    p.set_defaults(fn=cmd_capacities)

    p = sub.add_parser("errors", help="error terms e_k and band")
    _add_common(p)
    p.set_defaults(fn=cmd_errors)

    p = sub.add_parser("bounds", help="asymptotic band for a domain")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("tower", help="per-level tower dump")
    _add_common(p)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("obstruct", help="embedding obstructions between domains")
    p.add_argument("--from", dest="domain_from", required=True)
    p.add_argument("--to", dest="domain_to", required=True)
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_obstruct)

    p = sub.add_parser("selfcheck", help="run the built-in sanity battery")
    _add_common(p, domain=False)
    p.set_defaults(fn=cmd_selfcheck)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except CapaxError as exc:
        print(f"capax: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
