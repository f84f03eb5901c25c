"""The ``capax`` command line.

Commands: weights | capacities | errors | bounds | tower | obstruct |
selfcheck, each taking only the options it reads (`_COMMANDS`).  Exit
codes: 0 ok/inconclusive, 1 error or usage error, 2 obstructed.
Identical invocations produce byte-identical output.  --threads, on
capacities only, is accepted and has no effect: one thread computes all.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from fractions import Fraction

from . import capacities, domains, scalars, weights
from .errors import CapaxError, WindowOutOfRange


def _lazy(name: str):
    """capax.`name`, in sys.modules at once but executed at its first
    attribute access, so a command compiles and runs only the modules it
    uses (an uncompiled checkout compiles each module a process runs)."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


asymptotics, obstructions, tower = map(_lazy, ("asymptotics", "obstructions", "tower"))

CSV_HEADER = "# capax-csv v1"

_FLOAT_CONSTANTS = {
    "phi": (1 + math.sqrt(5.0)) / 2,
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "sqrt5": math.sqrt(5.0),
    "sqrt_phi": math.sqrt((1 + math.sqrt(5.0)) / 2),
}


def _scalar_arg(text: str, backend: str):
    text = text.strip()
    if text in _FLOAT_CONSTANTS:
        if backend != "float":
            raise CapaxError(f"constant {text!r} needs --backend float")
        return _FLOAT_CONSTANTS[text]
    return text  # parsed downstream with the backend and its field


_ARITY = {"ball": 1, "ellipsoid": 2, "square": 1, "quarter_disk": 1, "superellipse": 2}


def _json_domain(doc, eps: float, backend: str | None) -> domains.DomainDescriptor:
    """The descriptor of a JSON document; `eps` is the tolerance of a
    document that sets no "eps" of its own, and a `backend` other than the
    document's own is refused."""
    if isinstance(doc, dict):
        doc.setdefault("eps", eps)
    d = domains.descriptor_from_json(doc)
    if backend is not None and domains.parse_backend(backend) != domains.parse_backend(d.backend):
        raise CapaxError(f"--backend {backend} disagrees with the document's backend {d.backend}")
    return d


def parse_domain(spec: str, backend: str | None = None,
                 eps: float = 1e-9) -> domains.DomainDescriptor:
    """Inline shorthands (ball:a, ellipsoid:a,b, square:s, quarter_disk:r,
    superellipse:p,r, weights:c;w1,w2, polygon:<JSON>) or @file.json.
    `backend` is that of the shorthands, exact when None; a JSON document
    names its own, which a given `backend` must match.  `eps` is the
    absolute tolerance of each float input coordinate; a JSON document's
    own "eps" wins over it.

    Malformed input raises CapaxError: an unknown backend, an unreadable
    file, a wrong number of arguments, a malformed number (1/0 too) or JSON
    document, a bad field, a backend the document does not have."""
    inline = "exact" if backend is None else backend
    domains.parse_backend(inline)
    try:
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return _json_domain(json.load(fh), eps, backend)
        if ":" not in spec:
            raise CapaxError(f"domain spec {spec!r}: expected kind:args or @file.json")
        kind, rest = spec.split(":", 1)
        args = [a for a in rest.split(",") if a]
        if len(args) < _ARITY.get(kind, 0):
            raise CapaxError(f"domain spec {spec!r}: {kind} needs {_ARITY[kind]} "
                             f"argument(s), got {len(args)}")
        val = lambda s: _scalar_arg(s, inline)
        if kind == "ball":
            return domains.ball(val(args[0]), backend=inline, eps=eps)
        if kind == "ellipsoid":
            return domains.ellipsoid(val(args[0]), val(args[1]), backend=inline, eps=eps)
        if kind == "square":
            return domains.square(val(args[0]), backend=inline, eps=eps)
        if kind == "quarter_disk":
            return domains.quarter_disk(Fraction(args[0]), eps=eps)
        if kind == "superellipse":
            return domains.superellipse(Fraction(args[0]), Fraction(args[1]), eps=eps)
        if kind == "polygon":
            return _json_domain(json.loads(rest), eps, backend)
        if kind == "weights":
            head, _, tail = rest.partition(";")
            ws = [val(w) for w in tail.split(",") if w]
            return domains.weight_list(val(head) if head else None, ws,
                                       backend=inline, eps=eps)
    except OSError as exc:
        raise CapaxError(f"cannot read domain file {spec[1:]!r}: {exc.strerror}") from exc
    except (KeyError, ValueError, ArithmeticError) as exc:  # malformed number or field
        raise CapaxError(f"domain spec {spec!r}: {exc}") from exc
    raise CapaxError(f"unknown domain shorthand {kind!r}")


def _limits(ns) -> weights.TruncationLimits:
    return weights.TruncationLimits(max_depth=ns.depth, eps=ns.eps)


def _emit(ns, produce) -> None:
    """Run `produce(write)`, which writes the output in chunks, to stdout or
    to --out.  Every check runs before the first chunk, and the file opens
    at the first chunk, so refused output leaves stdout empty and creates
    no file."""
    if not ns.out:
        produce(sys.stdout.write)
        return
    fh = None

    def write(text):
        nonlocal fh
        if fh is None:
            fh = open(ns.out, "w", encoding="utf-8")
        fh.write(text)

    try:
        try:
            produce(write)
        finally:
            if fh is not None:
                fh.close()
    except OSError as exc:
        raise CapaxError(f"cannot write output file {ns.out!r}: {exc.strerror}") from exc


def _dump_json(obj, write) -> None:
    try:
        scalars.write_json(obj, write)
    except ValueError as exc:  # NaN or an infinity: not a JSON number
        raise CapaxError(f"a result left the float range: {exc}") from None


def _emit_json(ns, obj) -> None:
    _emit(ns, lambda write: _dump_json(obj, write))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_weights(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    domains.validate(d)
    if d.kind == "curve":
        d, _ = domains.inner_grid_polygon(d, 32)
    if d.kind == "ellipsoid" and not d.is_ball():
        tree = weights.concave_weights(d, _limits(ns))  # ball decomposition
    elif d.is_convex():
        tree = weights.convex_weights(d, _limits(ns))
    else:
        tree = weights.concave_weights(d, _limits(ns))
    if ns.format == "csv":
        _emit(ns, lambda write: weights.weights_to_csv(tree, write))
    else:
        _emit_json(ns, weights.tree_to_json(tree))
    return 0


def cmd_capacities(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    series = capacities.series_for_domain(d, ns.kmax, _limits(ns))
    if ns.oracle:
        if not d.is_convex():
            raise CapaxError("--oracle needs a convex domain")
        tw = tower.build_tower(weights.convex_weights(d, _limits(ns)))
        results = capacities.tower_capacities(tw, series.kmax)
        exact = series.backend != "float" and tw.tail_sum() == 0
        bad = [k for k, res in enumerate(results) if not _agree(series, k, res, exact)]
        for k in bad:
            print(f"oracle mismatch at k={k}: fast={float(series.value(k))} "
                  f"enum={float(results[k].value)}", file=sys.stderr)
        if bad:
            return 1
        series.meta["oracle"] = "verified"
    if ns.format == "csv":
        _emit(ns, series.to_csv)
    else:
        _emit_json(ns, series.to_json())
    return 0


def _agree(series, k: int, res, exact: bool) -> bool:
    """The two routes agree at k: on exact untruncated data both give
    points and they are equal; otherwise their certified intervals
    intersect, up to a rounding margin relative to the values."""
    if exact:
        return res.value == series.value(k)
    lo, hi = series.lo(k), series.hi(k)
    margin = 1e-9 * max(abs(lo), abs(hi), abs(res.bracket[1]))
    return res.bracket[1] >= lo - margin and res.bracket[0] <= hi + margin


def _window(ns):
    """--window k0:k1, inside [0, kmax]; the last nine tenths by default."""
    kmax = ns.kmax
    if not ns.window:
        return min(max(1, kmax // 10), kmax), kmax
    k0, _, k1 = ns.window.partition(":")
    try:
        k0, k1 = int(k0), int(k1)
    except ValueError:
        raise CapaxError(f"--window {ns.window!r}: expected k0:k1 with integers") from None
    if not 0 <= k0 <= k1 <= kmax:
        raise WindowOutOfRange(f"window [{k0},{k1}] not inside [0,{kmax}]")
    return k0, k1


def cmd_errors(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    win = _window(ns)
    series = capacities.series_for_domain(d, ns.kmax, _limits(ns))
    profile = domains.validate(d)
    has_geometry = profile.a is not None
    band = asymptotics.band_for_profile(profile) if has_geometry else None
    err = asymptotics.error_series(series, float(domains.area(d)), band=band)
    if ns.format == "csv":
        _emit(ns, err.to_csv)
        return 0
    stats = asymptotics.window_extrema(err, win)
    out = {"schema": "capax.errors.v1",
           "window": {"k0": win[0], "k1": win[1], "min": stats.minimum,
                      "max": stats.maximum, "mid": stats.midpoint}}
    if has_geometry:
        inv = asymptotics.edge_invariants(profile)
        report = asymptotics.convergence_verdict(profile, inv, stats)
        out.update(report.to_json())
    _emit_json(ns, out)
    return 0


def cmd_bounds(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    profile = domains.validate(d)
    if profile.a is None:
        raise CapaxError("bounds needs a domain with axis extents a, b; a weight list has none")
    band = asymptotics.band_for_profile(profile)
    inv = asymptotics.edge_invariants(profile)
    out = {
        "schema": "capax.bounds.v1",
        "band": [band.lower, band.upper],
        "mid": band.mid,
        "a": float(profile.a),
        "b": float(profile.b),
        "affine_length_plus": float(profile.total_affine_plus),
        "N_rational_edges": inv.n_rational,
        "v_rank": inv.v_rank,
    }
    if ns.format == "csv":
        text = (f"{CSV_HEADER} bounds\nband_lower,band_upper,mid\n"
                f"{band.lower!r},{band.upper!r},{band.mid!r}\n")
        _emit(ns, lambda write: write(text))
    else:
        _emit_json(ns, out)
    return 0


def cmd_tower(ns) -> int:
    d = parse_domain(ns.domain, ns.backend, ns.eps_backend)
    if not d.is_convex():
        raise CapaxError("tower construction needs a convex domain")
    tree = weights.convex_weights(d, _limits(ns))
    tw = tower.build_tower(tree)
    dump = tower.tower_dump(tw)
    if ns.format == "csv":
        levels = dump["levels"]
        columns = [scalars.Column([lv[key] for lv in levels], str)
                   for key in ("A2", "minus_K_dot_A", "minus_Kplus_dot_A", "F")]
        _emit(ns, lambda write: scalars.write_csv(
            write, f"{CSV_HEADER} tower\nn,A2,minus_K_dot_A,minus_Kplus_dot_A,F\n",
            [lv["n"] for lv in levels], columns))
    else:
        _emit_json(ns, dump)
    return 0


def cmd_obstruct(ns) -> int:
    d_from = parse_domain(ns.domain_from, ns.backend, ns.eps_backend)
    d_to = parse_domain(ns.domain_to, ns.backend, ns.eps_backend)
    report = obstructions.obstruct(d_from, d_to, ns.kmax, _limits(ns))
    _emit_json(ns, report.to_json())
    return report.exit_code


def cmd_selfcheck(ns) -> int:
    checks = []

    fig = domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex")
    t = weights.convex_weights(fig)
    checks.append(("figure polygon weights (5;1,1,1)",
                   t.head == 5 and sorted(t.weight_multiset()) == [1, 1, 1]))

    sq = capacities.square_capacities(Fraction(1), 8)
    checks.append(("square capacities 0..8",
                   sq.values == [0, 1, 2, 2, 3, 3, 4, 4, 4]))

    ball = capacities.ball_capacities(Fraction(1), 6)
    checks.append(("ball capacities 0..6",
                   ball.values == [0, 1, 1, 2, 2, 2, 3]))

    e12 = capacities.ellipsoid_capacities(Fraction(1), Fraction(2), 5)
    checks.append(("E(1,2) capacities 0..5",
                   e12.values == [0, 1, 2, 2, 3, 3]))

    tri = domains.polygon([(0, 0), (2, 0), (0, 1)], "concave")
    conc = capacities.concave_capacity(tri, 10)
    oracle = capacities.ellipsoid_capacities(Fraction(1), Fraction(2), 10)
    checks.append(("concave triangle equals E(1,2)",
                   conc.values == oracle.values))

    c1 = capacities.convex_capacity(fig, 1)
    checks.append(("figure polygon c_1 = 4", c1.value(1) == 4))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# each option's flags and argparse settings, stated once
_OPTIONS = {
    "--domain": dict(required=True,
                     help="ball:a | ellipsoid:a,b | square:s | quarter_disk:r | "
                          "superellipse:p,r | weights:c;w1,w2 | @file.json"),
    "--from": dict(dest="domain_from", required=True),
    "--to": dict(dest="domain_to", required=True),
    "--kmax": dict(type=int, default=50),
    "--depth": dict(type=int, help="recursion depth limit"),
    "--eps": dict(type=float, help="weight truncation threshold"),
    "--backend": dict(help="exact | sqrt:d | float: that of the inline specs (default "
                           "exact); a JSON document names its own"),
    "--eps-backend": dict(type=float, default=1e-9,
                          help="the absolute tolerance of each float input coordinate"),
    "--format": dict(choices=("csv", "json"), default="json"),
    "--threads": dict(type=int, default=1, help="accepted; has no effect"),
    "--window": dict(help="k0:k1 for window statistics"),
    "--out": dict(help="write output to a file"),
    "--oracle": dict(action="store_true", help="cross-check against the nef enumeration"),
}

# each command's function, help and the options it reads, in --help order
_COMMANDS = {
    "weights": (cmd_weights, "weight expansion of a domain",
                "--domain --depth --eps --backend --eps-backend --format --out"),
    "capacities": (cmd_capacities, "capacity sequence c_0..c_kmax",
                   "--domain --kmax --depth --eps --backend --eps-backend --format "
                   "--threads --out --oracle"),
    "errors": (cmd_errors, "error terms e_k and band",
               "--domain --kmax --depth --eps --backend --eps-backend --format --window --out"),
    "bounds": (cmd_bounds, "asymptotic band for a domain",
               "--domain --backend --eps-backend --format --out"),
    "tower": (cmd_tower, "per-level tower dump",
              "--domain --depth --eps --backend --eps-backend --format --out"),
    "obstruct": (cmd_obstruct, "embedding obstructions between domains",
                 "--from --to --kmax --depth --eps --backend --eps-backend --out"),
    "selfcheck": (cmd_selfcheck, "run the built-in sanity battery", ""),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CapaxError and so exit 1, like any bad input;
    argparse's own exit code 2 is capax's OBSTRUCTED."""

    def error(self, message):
        raise CapaxError(message)

    def _get_option_tuples(self, option_string):
        # a flag in full that this command lacks abbreviates no other (`bounds --eps`)
        if option_string.partition("=")[0] in _OPTIONS:
            return []
        return super()._get_option_tuples(option_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="capax", description="capacities of toric domains")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.fn(ns)
    except CapaxError as exc:
        print(f"capax: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
