"""Error terms, asymptotic bands, window diagnostics, edge invariants.

The error term of a capacity sequence is e_k = c_k - sqrt(4*vol*k).  Its
tail is bounded between (1/2)K.A and (1/2)K.A - K+.A, which for a toric
domain evaluate to -(a+b+L)/2 and -(a+b-L)/2 with L the affine length of
the rational-sloped part of the upper boundary.  With no rational-sloped
edges both bounds coincide and the error term converges to -(a+b)/2;
that is the only case in which a convergence verdict is issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VolumeMismatch, WindowOutOfRange
from .scalars import rational_parts, sfloat
from .domains import BoundaryProfile
from .capacities import CapacitySeries


@dataclass(frozen=True)
class Band:
    lower: float  # (1/2) K.A
    upper: float  # (1/2) K.A - K+.A

    @property
    def mid(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass
class ErrorSeries:
    source: str
    vol: float
    ks: np.ndarray
    e: np.ndarray
    band: Band | None = None

    def to_csv(self) -> str:
        lo = float(self.band.lower) if self.band else float("nan")
        hi = float(self.band.upper) if self.band else float("nan")
        lines = [f"# capax-csv v1 errors source={self.source} vol={self.vol!r}",
                 "k,e_k,band_lower,band_upper"]
        for k, e in zip(self.ks, self.e):
            lines.append(f"{int(k)},{float(e)!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


def error_series(series: CapacitySeries, vol: float,
                 band: Band | None = None,
                 expected_a2: float | None = None) -> ErrorSeries:
    """e_k = c_k - sqrt(4*vol*k) over the series' full range."""
    vol_f = sfloat(vol)
    if expected_a2 is not None and abs(expected_a2 - 2 * vol_f) > 1e-9 * (1 + abs(expected_a2)):
        raise VolumeMismatch(f"A^2 = {expected_a2} but 2*vol = {2 * vol_f}")
    ks = np.arange(series.kmax + 1)
    c = series.float_values()
    e = c - np.sqrt(4.0 * vol_f * ks)
    return ErrorSeries(source=series.source, vol=vol_f, ks=ks, e=e, band=band)


def error_values(c_values: np.ndarray, ks: np.ndarray, vol: float,
                 band: Band | None = None, source: str = "") -> ErrorSeries:
    """Error terms from a plain value array aligned with `ks`."""
    e = np.asarray(c_values, dtype=float) - np.sqrt(4.0 * float(vol) * np.asarray(ks, dtype=float))
    return ErrorSeries(source=source, vol=float(vol), ks=np.asarray(ks), e=e, band=band)


def band_from_pairings(k_dot_a: float, k_plus_dot_a: float) -> Band:
    """Divisor-level band [K.A/2, K.A/2 - K+.A]."""
    lower = 0.5 * sfloat(k_dot_a)
    upper = 0.5 * sfloat(k_dot_a) - sfloat(k_plus_dot_a)
    return Band(lower=lower, upper=upper)


def band_for_profile(profile: BoundaryProfile) -> Band:
    """Toric evaluation: K.A = -(a+b+L), K+.A = -L."""
    a, b = sfloat(profile.a), sfloat(profile.b)
    ell = sfloat(profile.total_affine_plus)
    return band_from_pairings(-(a + b + ell), -ell)


@dataclass(frozen=True)
class WindowStats:
    minimum: float
    maximum: float

    @property
    def midpoint(self) -> float:
        return (self.minimum + self.maximum) / 2.0


def window_extrema(e: ErrorSeries, window: tuple[int, int]) -> WindowStats:
    k0, k1 = window
    lo, hi = int(e.ks[0]), int(e.ks[-1])
    if k0 < lo or k1 > hi or k0 > k1:
        raise WindowOutOfRange(f"window [{k0},{k1}] not inside [{lo},{hi}]")
    sel = (e.ks >= k0) & (e.ks <= k1)
    vals = e.e[sel]
    return WindowStats(minimum=float(vals.min()), maximum=float(vals.max()))


@dataclass(frozen=True)
class GapReport:
    gaps: np.ndarray
    tail_limsup: float
    threshold: float
    verdict: str  # "scaled-lattice-like" | "vanishing-gap"


def gap_series(e: ErrorSeries, threshold: float = 0.1) -> GapReport:
    """Successive differences e_{k+1} - e_k; a persistently large tail gap
    signals scaled-lattice oscillation, a vanishing one rules it out."""
    if len(e.e) < 2:
        raise ValueError("need at least two error terms")
    gaps = np.diff(e.e)
    k_hi = int(e.ks[-1])
    k_lo = max(int(e.ks[0]), k_hi // 10 if k_hi >= 10 else int(e.ks[0]))
    sel = e.ks[1:] >= k_lo
    tail = float(gaps[sel].max()) if sel.any() else float(gaps.max())
    verdict = "scaled-lattice-like" if tail > threshold else "vanishing-gap"
    return GapReport(gaps=gaps, tail_limsup=tail, threshold=threshold, verdict=verdict)


@dataclass(frozen=True)
class EdgeInvariants:
    n_rational: int
    v_rank: int | None  # None = unknown (float backend)


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


@dataclass
class ConvergenceReport:
    proven: bool
    limit: float | None
    band: Band
    ruelle_proxy: float  # -(a+b)/2
    empirical_mid: float | None
    invariants: EdgeInvariants
    notes: list = field(default_factory=list)

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
                        e: ErrorSeries | None = None,
                        window: tuple[int, int] | None = None) -> ConvergenceReport:
    """Proven-convergent (limit -(a+b)/2) only when there are no
    rational-sloped upper edges, equivalently the tower is balanced;
    otherwise report the band and the empirical window midpoint."""
    inv = invariants if invariants is not None else edge_invariants(profile)
    band = band_for_profile(profile)
    ruelle = -(sfloat(profile.a) + sfloat(profile.b)) / 2.0
    notes = []
    proven = inv.n_rational == 0
    mid = None
    if e is not None:
        win = window or (int(e.ks[0]), int(e.ks[-1]))
        mid = window_extrema(e, win).midpoint
    if proven:
        notes.append("no rational-sloped upper edges: error terms converge")
    else:
        notes.append("convergence not proven; reporting band and window data")
    return ConvergenceReport(proven=proven, limit=ruelle if proven else None,
                             band=band, ruelle_proxy=ruelle, empirical_mid=mid,
                             invariants=inv, notes=notes)
