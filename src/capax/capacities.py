"""Capacity sequences: the series record and the dispatch to a route.

Two independent routes compute the same numbers, each in its own module:

* :mod:`capax.decomposition` expresses a domain through its weight
  expansion as balls, combines them with max-plus convolution, and for
  convex domains evaluates the corner-complement infimum with a certified
  stopping rule;
* :mod:`capax.nef` minimizes D.A over nef integer classes on a tower
  surface.

Balls, ellipsoids, polydisks and squares skip both: :mod:`capax.closed_forms`.
This module holds what they share -- `CapacitySeries`, `d_index`, the
max-plus union of balls -- and `series_for_domain`, which imports only the
route a domain takes.  The routes' public names are served from here too,
each importing its module at its first access, so a process compiles and
runs only the route it uses.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction

from .errors import CapaxError
from .scalars import Column, format_ratio, format_scalar, write_csv
from .domains import BoundaryProfile, DomainDescriptor, TruncationLimits, validate

# the public names of the route modules, by module; `__getattr__` serves them
_ROUTE_OF = {name: module for module, names in {
    "closed_forms": "ball_capacities ellipsoid_capacities polydisk_capacities "
                    "square_capacities",
    "decomposition": "concave_capacity convex_capacity",
    "nef": "alg_capacity_enum alg_capacity_series c_plus c_plus_reference dkn_upper_data "
           "tower_capacities tower_capacity TowerCapacityResult",
}.items() for name in names.split()}


def __getattr__(name: str):
    """A route's public name, from its module, which this first access
    imports (PEP 562).  Private names of the routes are not served."""
    module = _ROUTE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def d_index(k: int) -> int:
    """Smallest d >= 0 with d(d+3)/2 >= k (the ball capacity multiplier)."""
    if k <= 0:
        return 0
    d = (math.isqrt(9 + 8 * k) - 3) // 2
    while d * (d + 3) < 2 * k:
        d += 1
    while d > 0 and (d - 1) * (d + 2) >= 2 * k:
        d -= 1
    return d


def d_values(K: int, w=1) -> list:
    """[w * d_index(k) for k in range(K + 1)]: level t >= 1 covers the t + 1
    indices (t-1)(t+2)/2 < k <= t(t+3)/2."""
    out = [w * 0]
    t = 1
    while len(out) <= K:
        out += [w * t] * (t + 1)
        t += 1
    del out[K + 1:]
    return out


class CapacitySeries:
    """c_0..c_K with per-entry slack; values stay in the input backend.

    `num` is a list.  Rational values are ints over one denominator `den`:
    c_k = num[k]/den.  Quad and float values have `den` None and sit in
    `num` as they are."""

    __slots__ = ("method", "num", "den", "lower_slack", "upper_slack", "source", "backend",
                 "meta")

    def __init__(self, method: str, num: list, den: int | None = None,
                 lower_slack: list | None = None, upper_slack: list | None = None,
                 source: str = "", backend: str = "exact", meta: dict | None = None):
        self.method = method
        self.num = num
        self.den = den
        self.lower_slack = lower_slack
        self.upper_slack = upper_slack
        self.source = source
        self.backend = backend
        self.meta = {} if meta is None else meta

    @property
    def kmax(self) -> int:
        return len(self.num) - 1

    @property
    def values(self) -> list:
        if self.den is None:
            return list(self.num)
        return [Fraction(n, self.den) for n in self.num]

    def value(self, k: int):
        return self.num[k] if self.den is None else Fraction(self.num[k], self.den)

    def lo(self, k: int) -> float:
        s = self.lower_slack[k] if self.lower_slack else 0.0
        return float(self.value(k)) - float(s)

    def hi(self, k: int) -> float:
        s = self.upper_slack[k] if self.upper_slack else 0.0
        return float(self.value(k)) + float(s)

    def float_values(self) -> list[float]:
        return list(self.iter_floats())

    def iter_floats(self):
        """c_k as correctly rounded floats (int / int rounds once), one at a time."""
        return map(float, self.num) if self.den is None else (n / self.den for n in self.num)

    def assert_nondecreasing(self):
        """c_0 = 0 and c_k >= c_{k-1}, exactly on exact data."""
        c = self.num
        tol = 1e-12 if isinstance(c[-1], float) else 0
        if c[0] != 0:
            raise AssertionError("series must start at c_0 = 0")
        down = next((k for k in range(1, len(c)) if c[k] < c[k - 1] - tol), None)
        if down is not None:
            raise AssertionError(f"series decreases at k={down}")

    def _value_column(self) -> Column:
        if self.den is None:
            return Column(self.num, format_scalar)
        den = self.den
        return Column(self.num, str if den == 1 else lambda n: format_ratio(n, den))

    def to_json(self) -> dict:
        """The JSON document, its arrays as Columns for `write_json`."""
        return {
            "schema": "capax.capacities.v1",
            "method": self.method,
            "backend": self.backend,
            "source": self.source,
            "kmax": self.kmax,
            "values": self._value_column(),
            "lower_slack": Column(self.lower_slack) if self.lower_slack else None,
            "upper_slack": Column(self.upper_slack) if self.upper_slack else None,
            "meta": self.meta,
        }

    def to_csv(self, write) -> None:
        """The CSV rows, in chunks to `write`."""
        write_csv(write, f"# capax-csv v1 capacities method={self.method} source={self.source}\n"
                         "k,c_k,lower_slack,upper_slack,method\n",
                  range(len(self.num)),
                  [self._value_column(),
                   Column(self.lower_slack) if self.lower_slack else "0.0",
                   Column(self.upper_slack) if self.upper_slack else "0.0"],
                  "," + self.method)


def _scaled(xs: list) -> tuple[int | None, list]:
    """Rational data as Python ints over their common denominator; floats
    and Quads come back as they are, with denominator None."""
    if all(isinstance(x, (int, Fraction)) for x in xs):
        den = math.lcm(*(Fraction(x).denominator for x in xs))
        return den, [int(x * den) for x in xs]
    return None, list(xs)


def union_of_balls(weights: list, K: int, zero) -> CapacitySeries:
    """Max-plus union of ball series.  One ball is its own closed form,
    c_k = w*d(k); more fold as staircases (`decomposition._ball_list`)."""
    if not weights:
        return CapacitySeries(method="decomposition", num=[zero] * (K + 1))
    den, ws = _scaled(weights)
    if len(ws) == 1:
        num = d_values(K, ws[0])
    else:
        from .decomposition import _ball_list
        num = _ball_list(ws, K)
    return CapacitySeries(method="decomposition", num=num, den=den)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _polygon_closed_form(d: DomainDescriptor, profile: BoundaryProfile,
                         K: int) -> CapacitySeries | None:
    """The closed form of a polygon that has one: a convex box is a
    polydisk, and a rational triangle (0,0),(a,0),(0,b) is E(a, b).
    Float and Q(sqrt d) triangles keep the weight route."""
    chain = profile.chain
    if len(chain) == 3 and d.orientation == "convex":
        (x0, y0), (x1, y1), (x2, y2) = chain
        if d.zero(x0) and d.equal(y1, y0) and d.equal(x1, x2) and d.zero(y2):
            from .closed_forms import polydisk_capacities
            return polydisk_capacities(x1, y0, K)  # width, height
    if len(chain) == 2 and d.backend == "exact":
        from .closed_forms import ellipsoid_capacities
        (_, b), (a, _) = chain
        return ellipsoid_capacities(a, b, K)
    return None


# the largest kmax `series_for_domain` computes.  Output is streamed, so the
# lists a command holds set the peak: 39-46 bytes per value of max-RSS over
# the interpreter's 16 MB for the closed forms (ball, ellipsoid, square, at
# kmax 4*10^6, JSON and CSV), and 83 for `errors`, which holds the e_k too.
# At this ceiling `errors` on a ball peaks near 1.0 GB
MAX_KMAX = 12_000_000


def series_for_domain(d: DomainDescriptor, K: int,
                      limits: TruncationLimits | None = None) -> CapacitySeries:
    """Pick the natural route for the descriptor, after validating it; only
    that route's module is imported."""
    if not 0 <= K <= MAX_KMAX:
        raise CapaxError(f"kmax must be between 0 and {MAX_KMAX}, got {K}")
    profile = validate(d)
    if d.kind == "ellipsoid":
        from .closed_forms import ball_capacities, ellipsoid_capacities
        if d.is_ball():
            return ball_capacities(d.a, K)
        return ellipsoid_capacities(d.a, d.b, K)
    if d.kind == "polygon":
        closed = _polygon_closed_form(d, profile, K)
        if closed is not None:
            return closed
    if d.kind in ("polygon", "weight_list"):
        from .decomposition import concave_capacity, convex_capacity
        if d.is_convex():
            return convex_capacity(d, K, limits)
        return concave_capacity(d, K, limits)
    if d.kind == "curve":
        from .curves import inner_grid_polygon
        from .decomposition import convex_capacity
        # coarse grid denominators keep the recursion tree small; the
        # Hausdorff bound flows into the per-entry slack
        poly, hb = inner_grid_polygon(d, M=max(16, min(48, K)))
        series = convex_capacity(poly, K, limits)
        r = float(d.params[-1])
        lam = hb / max(r - hb, 1e-9)
        base = series.upper_slack or [0.0] * (K + 1)
        series.upper_slack = [u + lam * c for u, c in zip(base, series.float_values())]
        series.source = f"curve:{d.curve}"
        series.backend = "float"
        return series
    raise ValueError(f"unknown domain kind {d.kind!r}")
