"""Symplectic-embedding obstructions between two toric domains.

Necessary conditions checked, in order: capacity monotonicity
c_k(from) <= c_k(to) for k up to the requested range, volume
monotonicity, and -- when the volumes agree and both domains are
admissible -- the affine-length inequality
a + b + L(from) >= a + b + L(to).  A verdict of OBSTRUCTED requires at
least one strictly violated condition beyond the combined reported
slack; everything else is INCONCLUSIVE (this tool never claims an
embedding exists).  Two exact domains whose series carry no slack are
compared exactly: equal volumes are equal, and every witness has slack 0.
Float or truncated data compare in floats, with margins.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import NotComparable
from .scalars import rational_parts
from .domains import DomainDescriptor, TruncationLimits, area_tolerance, validate
from .capacities import series_for_domain

VOL_RTOL = 1e-9


class Witness(namedtuple("Witness", "criterion k from_value to_value slack")):
    """One violated condition: `criterion` is "capacity", "volume" or
    "affine_length"; `k` is None but for a capacity."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


class ObstructionReport:
    __slots__ = ("verdict", "witnesses", "admissible_from", "admissible_to", "vol_from",
                 "vol_to", "volumes_equal", "notes")

    def __init__(self, verdict: str, witnesses: list, admissible_from: bool,
                 admissible_to: bool, vol_from: float, vol_to: float, volumes_equal: bool,
                 notes: list | None = None):
        self.verdict = verdict  # "OBSTRUCTED" | "INCONCLUSIVE"
        self.witnesses = witnesses
        self.admissible_from = admissible_from
        self.admissible_to = admissible_to
        self.vol_from = vol_from
        self.vol_to = vol_to
        self.volumes_equal = volumes_equal
        self.notes = [] if notes is None else notes

    @property
    def exit_code(self) -> int:
        return 2 if self.verdict == "OBSTRUCTED" else 0

    def to_json(self) -> dict:
        return {
            "schema": "capax.obstruction.v1",
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "admissible": {"from": self.admissible_from, "to": self.admissible_to},
            "volumes": {"from": self.vol_from, "to": self.vol_to,
                        "equal_within_tolerance": self.volumes_equal},
            "notes": self.notes,
        }


def _is_scaled_lattice(d: DomainDescriptor) -> bool:
    """The polygon is q * (lattice polygon) for some real q > 0; decidable
    in exact backends."""
    if d.backend == "float":
        return False
    coords = [Fraction(c) if isinstance(c, int) else c
              for v in d.vertices for c in v if c != 0]
    return bool(coords) and all(rational_parts(c / coords[0])[1] == 0 for c in coords)


def admissible(d: DomainDescriptor, profile=None) -> bool:
    """Concave, or convex with no rational-sloped upper edges, or convex of
    scaled-lattice type."""
    if d.is_concave():
        return True
    prof = profile if profile is not None else validate(d)
    if prof.smooth or all(not e.rational_sloped for e in prof.plus_edges):
        return True
    return _is_scaled_lattice(d)


def obstruct(dom_from: DomainDescriptor, dom_to: DomainDescriptor, K: int,
             limits: TruncationLimits | None = None) -> ObstructionReport:
    """Collect every certified violation of the necessary conditions."""
    exact_pair = dom_from.backend != "float" and dom_to.backend != "float"
    if dom_from.backend != dom_to.backend and exact_pair:
        if dom_from.field_d is not None and dom_to.field_d is not None \
                and dom_from.field_d != dom_to.field_d:
            raise NotComparable(
                f"backends {dom_from.backend} and {dom_to.backend}: no common field")
    prof_from, prof_to = validate(dom_from), validate(dom_to)
    witnesses: list[Witness] = []
    notes = ["interior vs closed domain is immaterial to these necessary conditions"]

    s_from = series_for_domain(dom_from, K, limits)
    s_to = series_for_domain(dom_to, K, limits)
    # exact data with no slack compare exactly, with zero margins and slack
    exact = exact_pair and not any(x for s in (s_from, s_to)
                                   for x in (s.lower_slack or []) + (s.upper_slack or []))
    num = (lambda x: x) if exact else float
    guard = 0 if exact else 1e-12
    for k in range(min(s_from.kmax, s_to.kmax) + 1):
        c_from, c_to = s_from.value(k), s_to.value(k)
        # certified lower value for the source, upper value for the target
        lo_from, hi_to = (c_from, c_to) if exact else (s_from.lo(k), s_to.hi(k))
        if lo_from > hi_to + guard * (1 + abs(hi_to)):
            slack = (float(c_from) - float(lo_from)) + (float(hi_to) - float(c_to))
            witnesses.append(Witness("capacity", k, float(c_from), float(c_to), slack))
            if len(witnesses) >= 8:
                break

    vf, vt = num(prof_from.area), num(prof_to.area)
    vol_slack = 0 if exact else (area_tolerance(dom_from) + area_tolerance(dom_to)
                                 + VOL_RTOL * max(abs(vf), abs(vt), 1.0))
    if vf > vt + vol_slack:
        witnesses.append(Witness("volume", None, float(vf), float(vt), float(vol_slack)))
    volumes_equal = abs(vf - vt) <= vol_slack

    adm_from, adm_to = admissible(dom_from, prof_from), admissible(dom_to, prof_to)
    if volumes_equal and (prof_from.a is None or prof_to.a is None):
        notes.append("equal volumes but a weight list has no axis extents: "
                     "affine-length criterion not applied")
    elif volumes_equal and adm_from and adm_to:
        # a + b + the affine length of the rational part of the upper boundary
        lf, lt = (num(p.a) + num(p.b) + num(p.total_affine_plus) for p in (prof_from, prof_to))
        slack = 0 if exact else prof_from.affine_tol + prof_to.affine_tol \
            + 1e-12 * (1 + abs(lf) + abs(lt))
        if lf < lt - slack:
            witnesses.append(Witness("affine_length", None, float(lf), float(lt), float(slack)))
    elif volumes_equal and not (adm_from and adm_to):
        notes.append("equal volumes but inadmissible domain: affine-length "
                     "criterion not applied")

    verdict = "OBSTRUCTED" if witnesses else "INCONCLUSIVE"
    return ObstructionReport(verdict=verdict, witnesses=witnesses,
                             admissible_from=adm_from, admissible_to=adm_to,
                             vol_from=float(vf), vol_to=float(vt),
                             volumes_equal=volumes_equal, notes=notes)
