"""Capacities of convex and concave toric domains.

The package exposes its submodules, not a flat namespace; import them
directly (``from capax import capacities``):

* :mod:`capax.scalars` -- exact rational / Q(sqrt d) / plain float
  backends,
* :mod:`capax.domains` -- domain descriptors, validation, elementary
  invariants, the inner grid polygon of a curve domain,
* :mod:`capax.weights` -- the weight-expansion recursion, deficiencies,
  balancedness,
* :mod:`capax.tower` -- blowup towers of polarised surfaces and their
  per-level invariants,
* :mod:`capax.capacities` -- capacity sequences by decomposition DP
  (max-plus ball staircases and the convex infimum scan), nef-divisor
  enumeration, and closed forms,
* :mod:`capax.asymptotics` -- error terms, asymptotic bands, window
  extrema and convergence verdicts,
* :mod:`capax.obstructions` -- embedding-obstruction reports,
* :mod:`capax.cli` -- the ``capax`` command-line front end.
"""
