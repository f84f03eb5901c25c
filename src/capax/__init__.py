"""Capacities of convex and concave toric domains.

The package exposes its submodules, not a flat namespace; import them
directly (``from capax import capacities``):

* :mod:`capax.scalars` -- exact rational / Q(sqrt d) / plain float
  backends and streamed output,
* :mod:`capax.quad` -- the exact elements of Q(sqrt d), loaded for such
  data alone,
* :mod:`capax.domains` -- domain descriptors, validation, elementary
  invariants, truncation limits,
* :mod:`capax.validation` -- the checks of polygons and weight lists,
  loaded for those kinds alone,
* :mod:`capax.curves` -- the smooth curve domains (quarter disk,
  superellipse) and their inner grid polygon,
* :mod:`capax.weights` -- the weight-expansion recursion, deficiencies,
  balancedness,
* :mod:`capax.tower` -- blowup towers of polarised surfaces and their
  per-level invariants,
* :mod:`capax.capacities` -- the capacity series, the max-plus union of
  balls and the dispatch of a domain to its route, which serves each
  route's public names,
* :mod:`capax.closed_forms` -- balls, ellipsoids, polydisks and squares,
* :mod:`capax.decomposition` -- capacities by decomposition DP (max-plus
  ball staircases and the convex infimum scan),
* :mod:`capax.nef` -- capacities by nef-divisor enumeration on a tower
  surface, and the closed-form bound c_k^+,
* :mod:`capax.asymptotics` -- error terms, asymptotic bands, window
  extrema and convergence verdicts,
* :mod:`capax.obstructions` -- embedding-obstruction reports,
* :mod:`capax.cli` -- the ``capax`` command-line front end.
"""
