"""Sweep orchestration with persistent, resumable artifacts.

The experiment layer regenerates the paper's evidence as grids of
independent (circuit, lambda) cells — Table 1 is 13 circuits x 2 lambdas,
Figure 4 is one circuit x 4 lambdas.  This package runs those cells
serially or on a ``concurrent.futures.ProcessPoolExecutor``, persists every
completed cell as a JSON artifact keyed by a hash of its full input spec,
and on resume skips any cell whose artifact still matches the current
configuration.

* :mod:`repro.runner.artifacts` — artifact layout, spec hashing, atomic
  save and checked load;
* :mod:`repro.runner.errors` — :class:`~repro.runner.errors.DeterministicError`
  and the numerical-health guards;
* :mod:`repro.runner.sweep` — cell specs, the per-cell evaluators (plain
  module-level functions so they pickle into worker processes) and
  :func:`~repro.runner.sweep.run_cells`.

``repro.analysis.experiments`` drives its Table-1/Fig-4 runners through
this package, and the ``repro-sizer sweep`` CLI command exposes it
directly.
"""
