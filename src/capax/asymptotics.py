"""Error terms, asymptotic bands, window diagnostics, edge invariants.

The error term of a capacity sequence is e_k = c_k - sqrt(4*vol*k).  Its
tail is bounded between (1/2)K.A and (1/2)K.A - K+.A, which for a toric
domain evaluate to -(a+b+L)/2 and -(a+b-L)/2 with L the affine length of
the rational-sloped part of the upper boundary.  With no rational-sloped
edges both bounds coincide and the error term converges to -(a+b)/2;
that is the only case in which a convergence verdict is issued.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .errors import CapaxError, WindowOutOfRange
from .scalars import Column, rational_parts, write_csv
from .domains import BoundaryProfile
from .capacities import CapacitySeries


class Band(namedtuple("Band", "lower upper")):
    """The band [(1/2) K.A, (1/2) K.A - K+.A]."""

    __slots__ = ()

    @property
    def mid(self) -> float:
        return (self.lower + self.upper) / 2.0


class ErrorSeries:
    __slots__ = ("source", "vol", "ks", "e", "band")

    def __init__(self, source: str, vol: float, ks, e: list, band: Band | None = None):
        self.source = source
        self.vol = vol
        self.ks = ks  # a range or a list
        self.e = e
        self.band = band

    def to_csv(self, write) -> None:
        """The CSV rows, in chunks to `write`."""
        lo = float(self.band.lower) if self.band else float("nan")
        hi = float(self.band.upper) if self.band else float("nan")
        write_csv(write, f"# capax-csv v1 errors source={self.source} vol={self.vol!r}\n"
                         "k,e_k,band_lower,band_upper\n",
                  self.ks[:len(self.e)], [Column(self.e), repr(lo), repr(hi)])


def error_series(series: CapacitySeries, vol: float,
                 band: Band | None = None) -> ErrorSeries:
    """e_k = c_k - sqrt(4*vol*k) over the series' full range."""
    vol_f = float(vol)
    if not 4.0 * vol_f * series.kmax < math.inf:
        raise CapaxError(f"sqrt(4 vol k) leaves the float range: vol = {vol_f!r}")
    return error_values(series.iter_floats(), range(series.kmax + 1), vol_f, band,
                        series.source)


def error_values(c_values, ks, vol: float,
                 band: Band | None = None, source: str = "") -> ErrorSeries:
    """Error terms from plain values aligned with the indices `ks`."""
    four_vol = 4.0 * float(vol)
    e = [float(c) - math.sqrt(four_vol * float(k)) for c, k in zip(c_values, ks)]
    return ErrorSeries(source=source, vol=float(vol), ks=ks, e=e, band=band)


def band_from_pairings(k_dot_a: float, k_plus_dot_a: float) -> Band:
    """Divisor-level band [K.A/2, K.A/2 - K+.A]."""
    lower = 0.5 * float(k_dot_a)
    upper = 0.5 * float(k_dot_a) - float(k_plus_dot_a)
    return Band(lower=lower, upper=upper)


def band_for_profile(profile: BoundaryProfile) -> Band:
    """Toric evaluation: K.A = -(a+b+L), K+.A = -L."""
    a, b = float(profile.a), float(profile.b)
    ell = float(profile.total_affine_plus)
    return band_from_pairings(-(a + b + ell), -ell)


class WindowStats(namedtuple("WindowStats", "minimum maximum")):
    __slots__ = ()

    @property
    def midpoint(self) -> float:
        return (self.minimum + self.maximum) / 2.0


def window_extrema(e: ErrorSeries, window: tuple[int, int]) -> WindowStats:
    k0, k1 = window
    lo, hi = int(e.ks[0]), int(e.ks[-1])
    if k0 < lo or k1 > hi or k0 > k1:
        raise WindowOutOfRange(f"window [{k0},{k1}] not inside [{lo},{hi}]")
    vals = e.e[bisect_left(e.ks, k0):bisect_right(e.ks, k1)]  # ks is sorted
    return WindowStats(minimum=min(vals), maximum=max(vals))


class EdgeInvariants(namedtuple("EdgeInvariants", "n_rational v_rank")):
    """The count of rational-sloped upper edges and the rational rank of
    their affine lengths (None: unknown, on the float backend)."""

    __slots__ = ()


def edge_invariants(profile: BoundaryProfile) -> EdgeInvariants:
    """Count of rational-sloped upper edges and the rational rank of their
    affine lengths (exact backends only)."""
    lengths = [e.affine_length for e in profile.plus_edges if e.rational_sloped]
    n = len(lengths)
    if n == 0:
        return EdgeInvariants(n_rational=0, v_rank=0)
    if profile.backend == "float":
        return EdgeInvariants(n_rational=n, v_rank=None)
    rank = 0
    pivot = None
    for vec in map(rational_parts, lengths):
        if rank == 0:
            if vec != (0, 0):
                pivot = vec
                rank = 1
        elif rank == 1:
            if pivot[0] * vec[1] - pivot[1] * vec[0] != 0:
                rank = 2
                break
    return EdgeInvariants(n_rational=n, v_rank=rank)


class ConvergenceReport:
    __slots__ = ("proven", "limit", "band", "ruelle_proxy", "empirical_mid", "invariants",
                 "notes")

    def __init__(self, proven: bool, limit: float | None, band: Band, ruelle_proxy: float,
                 empirical_mid: float | None, invariants: EdgeInvariants,
                 notes: list | None = None):
        self.proven = proven
        self.limit = limit
        self.band = band
        self.ruelle_proxy = ruelle_proxy  # -(a+b)/2
        self.empirical_mid = empirical_mid
        self.invariants = invariants
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        return {
            "schema": "capax.verdict.v1",
            "proven_convergent": self.proven,
            "limit": self.limit,
            "band": [self.band.lower, self.band.upper],
            "ruelle_proxy": self.ruelle_proxy,
            "empirical_mid": self.empirical_mid,
            "N_rational_edges": self.invariants.n_rational,
            "v_rank": self.invariants.v_rank,
            "notes": self.notes,
        }


def convergence_verdict(profile: BoundaryProfile,
                        invariants: EdgeInvariants | None = None,
                        stats: WindowStats | None = None) -> ConvergenceReport:
    """Proven-convergent (limit -(a+b)/2) only when there are no
    rational-sloped upper edges, equivalently the tower is balanced;
    otherwise report the band and the midpoint of the window `stats`."""
    inv = invariants if invariants is not None else edge_invariants(profile)
    band = band_for_profile(profile)
    ruelle = -(float(profile.a) + float(profile.b)) / 2.0
    notes = []
    proven = inv.n_rational == 0
    if proven:
        notes.append("no rational-sloped upper edges: error terms converge")
    else:
        notes.append("convergence not proven; reporting band and window data")
    return ConvergenceReport(proven=proven, limit=ruelle if proven else None,
                             band=band, ruelle_proxy=ruelle,
                             empirical_mid=None if stats is None else stats.midpoint,
                             invariants=inv, notes=notes)
