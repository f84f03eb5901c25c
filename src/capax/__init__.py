"""Capacities of convex and concave toric domains.

Library layout:

* :mod:`capax.scalars` -- exact rational / Q(sqrt d) / tolerance-tagged
  float backends,
* :mod:`capax.domains` -- domain descriptors, validation, elementary
  invariants, inner polygonalization,
* :mod:`capax.weights` -- the weight-expansion recursion, deficiencies,
  balancedness,
* :mod:`capax.tower` -- blowup towers of polarised surfaces, tower
  divisors and their pairing,
* :mod:`capax.capacities` -- capacity sequences by decomposition DP,
  nef-divisor enumeration, and closed forms,
* :mod:`capax.asymptotics` -- error terms, asymptotic bands, window
  diagnostics and convergence verdicts,
* :mod:`capax.obstructions` -- embedding-obstruction reports,
* :mod:`capax.cli` -- the ``capax`` command-line front end.
"""

from . import errors
from .scalars import Eps, Quad, parse_scalar, format_scalar
from .domains import (
    DomainDescriptor,
    BoundaryProfile,
    validate,
    area,
    circumscribed_head,
    inscribed_triangle,
    polygonalize,
)
from .weights import (
    TruncationLimits,
    WeightNode,
    WeightTree,
    concave_weights,
    convex_weights,
    linearize,
    deficiencies,
    is_balanced,
)
from .tower import (
    PicBasisSurface,
    TowerDivisor,
    p2_init,
    blowup,
    build_tower,
    intersect,
    k_plus_dot_A,
    nef_test,
    F_of_n,
)
from .capacities import (
    CapacitySeries,
    ball_capacities,
    ellipsoid_capacities,
    square_capacities,
    union_capacities,
    concave_capacity,
    convex_capacity,
    alg_capacity_enum,
    alg_capacity_series,
    tower_capacity,
    tower_capacities,
    c_plus,
    dkn_upper,
    series_for_domain,
)
from .asymptotics import (
    ErrorSeries,
    EdgeInvariants,
    error_series,
    band_for_profile,
    band_from_pairings,
    window_extrema,
    gap_series,
    edge_invariants,
    convergence_verdict,
)
from .obstructions import ObstructionReport, obstruct

__version__ = "0.1.0"
