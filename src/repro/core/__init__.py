"""Core models: layers, loop orders, tiling, traffic, energy, performance.

This package is the paper's primary contribution rebuilt as a library:
the flexible-dataflow cost model that Morph's hardware exposes and its
software optimizer searches (paper Sections II-V).

Two evaluation paths share one set of equations:

* the **scalar path** (:mod:`repro.core.evaluate`) walks one candidate at
  a time through ``compute_traffic`` -> ``compute_performance`` ->
  ``compute_energy`` and returns a full :class:`~repro.core.evaluate.
  Evaluation` object — the readable reference implementation;
* the **columnar batch path** (:mod:`repro.core.batch`) lowers a whole
  candidate set into NumPy columns (tile extents per level, loop-order and
  parallelism indices) and computes traffic, cycles, energy and the
  objective for every candidate in a handful of array expressions,
  materialising ``Evaluation`` objects lazily for winners only.

The formulas live in shared scalar/array-agnostic ``*_kernel`` functions
(:func:`~repro.core.tiling.sum_input_extents_kernel`,
:func:`~repro.core.performance_model.utilization_kernel`,
:func:`~repro.core.energy_model.energy_accumulation_kernel`, ...), so the
two paths cannot drift apart; an equivalence harness
(``tests/test_batch_equivalence.py``) additionally pins chosen
configurations and bit-identical scores across random layers, strides,
dilations and objectives.  The optimizer uses the batch path by default;
``REPRO_VECTORIZE=0`` (or a missing NumPy) falls back to the scalar path
everywhere.  Dilated 3D convolution (D2Conv3D-style ``dilation_h/w/f`` on
:class:`~repro.core.layer.ConvLayer`) is handled by both.

``max_table_bytes=...`` caps the peak table memory of the columnar
passes (candidate scoring and both simulators) by streaming row chunks
with carried reductions — bit-identical to the uncapped pass, the
chunking contract in ``docs/INVARIANTS.md``.  The chunk planner lives in
:mod:`repro.core.batch`; the knob threads through
:class:`~repro.optimizer.search.OptimizerOptions`,
:class:`repro.api.SessionConfig`, ``$REPRO_MAX_TABLE_BYTES`` and the
runner flag, and — being a pure speed knob — stays out of search
signatures and cache keys.
"""
