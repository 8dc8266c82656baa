"""The Morph software optimizer (paper Section V).

Enumerates per-layer configurations (loop orders x tile sizes x
parallelism), allocates sub-tiles with the corner/f_reuse heuristic,
evaluates each candidate with the analytic models, and lowers the winner
to hardware programming state (FSM programs, bank assignments, NoC masks).

Module map:

* :mod:`~repro.optimizer.search` — the per-layer search
  (:class:`LayerOptimizer`) with its objective lower-bound early-prune
  fast path, plus :func:`optimize_network`.  Candidates are scored through
  the columnar batch pipeline (:mod:`repro.core.batch`) by default, with
  the scalar reference path behind ``vectorize=False`` /
  ``REPRO_VECTORIZE=0`` — identical results either way.  The
  (parallelism, L2-tile) candidate blocks are visited *best-first* —
  ascending by objective lower bound — so the prune bites as early as
  possible; the ordering guarantee (equal-score ties keyed to candidate
  identity, never visit order) makes the chosen configuration and score
  bit-identical to the legacy order (kept as the test hook
  ``OptimizerOptions(search_order="legacy")``).  Block bounds are
  *parallelism-aware* (utilization ceiling + weight-replication floor;
  the test hook ``parallel_floors=False`` gives the shape-only bounds),
  and the search
  is *anytime*: ``OptimizerOptions(budget_ms=...)`` stops at the first
  block boundary past the budget and returns the best-so-far
  configuration with a certified ``LayerResult.bound_gap`` —
  bit-identical to the unbudgeted search whenever the budget is not hit
  (the anytime contract in ``docs/INVARIANTS.md``).
* :mod:`~repro.optimizer.clock` — the sanctioned injectable monotonic
  clock behind the budget (``use_clock`` fakes time in tests; the only
  wall-clock read the determinism lint permits under ``optimizer/``).
* :mod:`~repro.optimizer.engine` — the scaling layer every network sweep
  runs through: content-keyed deduplication of identical layer shapes,
  process-pool (or, with ``parallelism_mode="thread"``, thread-pool)
  fan-out of unique searches, and the persistent configuration cache
  (paper Section V's "saved and recalled" configuration files).  Knobs:
  ``use_cache``, ``parallelism``, ``parallelism_mode``, ``cache_dir``,
  ``cache_backend``, ``vectorize``, ``budget_ms`` and
  ``max_table_bytes`` (stream columnar tables in row chunks under a
  byte cap — bit-identical results, like every speed knob here) on
  :func:`optimize_network` / :func:`optimize_layer`; scoped defaults
  via a :class:`repro.api.Session` (concurrent sweeps with different
  configs coexist in one process), or the
  ``REPRO_PARALLELISM`` / ``REPRO_PARALLELISM_MODE`` /
  ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_BACKEND`` / ``REPRO_VECTORIZE``
  / ``REPRO_BUDGET_MS`` / ``REPRO_MAX_TABLE_BYTES`` environment
  variables (runner flags of the
  same names exist for all of them; a malformed value raises naming
  the variable, it never silently falls back to a default).
* :mod:`~repro.optimizer.config_store` — the JSON codec for whole-network
  configuration files, the engine's per-layer cache records, and the
  pluggable :class:`~repro.optimizer.config_store.ConfigStore` backends
  those records live in: ``"local"`` (flat directory, atomic renames,
  corrupt-record quarantine), ``"sharded"`` (two-level fan-out plus
  manifest for cluster-shared NFS/object-storage mounts) and ``"memory"``
  (in-process) — or any user-supplied store instance.
* :mod:`~repro.optimizer.allocation` / :mod:`~repro.optimizer.space` —
  sub-tile allocation and search-space discretisation (including the
  best-first block ordering of
  :func:`~repro.optimizer.space.candidate_blocks`).
* :mod:`~repro.optimizer.schedule` — lowering to hardware state.
"""
