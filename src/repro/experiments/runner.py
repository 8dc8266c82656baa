"""Experiment runner: regenerate any or all paper figures/tables.

Usage::

    python -m repro.experiments.runner --all
    python -m repro.experiments.runner fig9 table3 --thorough
    python -m repro.experiments.runner --all --parallelism 8 --cache-dir ~/.cache/repro
    python -m repro.experiments.runner --all --config sweep.toml

The runner is a thin CLI over :mod:`repro.api`: it materialises one
:class:`~repro.api.SessionConfig` from its flags (with the documented
precedence — explicit flags beat ``--config`` file values beat
``$REPRO_*`` environment variables beat built-in defaults), opens a
:class:`~repro.api.Session`, and hands that session to every experiment's
uniform ``main(fast=..., session=...)`` entry point.  Nothing is mutated
process-wide: two runners embedded in one process (or a runner inside a
larger service) cannot leak configuration into each other.

``--parallelism`` fans unique-layer searches across worker processes
(``--parallelism-mode thread`` swaps in a thread pool for free-threaded
builds) and ``--cache-dir`` persists each search's chosen configuration
on disk, so a rerun recalls every configuration instead of re-searching
(paper Section V: the analysis runs once per CNN and is then saved and
recalled); ``--cache-backend`` picks the store layout (``local`` flat
directory, ``sharded`` two-level fan-out for cluster-shared mounts —
with automatic manifest compaction tunable via
``--manifest-compact-ratio`` — ``memory`` in-process).  ``--no-cache``
disables memoisation entirely for timing cold runs.  On exit the session
folds its cache statistics into the store's ``CACHE_STATS.json`` sidecar
and prints the merged (cross-process) totals.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import Session, SessionConfig
from repro.experiments import EXPERIMENTS


def build_config(args: argparse.Namespace) -> SessionConfig:
    """One :class:`SessionConfig` from the CLI flags, layered over any
    ``--config`` file and the environment (explicit flags win)."""
    return SessionConfig.resolve(
        file=args.config,
        parallelism=args.parallelism,
        parallelism_mode=args.parallelism_mode,
        cache_dir=args.cache_dir,
        cache_backend=args.cache_backend,
        use_cache=False if args.no_cache else None,
        vectorize=args.vectorize,
        budget_ms=args.budget_ms,
        max_table_bytes=args.max_table_bytes,
        frames=args.frames,
        manifest_compact_ratio=args.manifest_compact_ratio,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate Morph (MICRO 2018) figures and tables."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"which to run: {', '.join(EXPERIMENTS)}, 'all', or 'serve' "
        "(long-lived line-JSON serving loop on stdin/stdout)",
    )
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--thorough",
        action="store_true",
        help="full search-space sweep (slow; default uses the fast preset)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="load a SessionConfig from a TOML/JSON file; explicit flags "
        "override its values, which override $REPRO_* variables",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for unique-layer searches (default: "
        "$REPRO_PARALLELISM or serial)",
    )
    parser.add_argument(
        "--parallelism-mode",
        choices=("process", "thread"),
        default=None,
        help="executor for parallel searches (default: "
        "$REPRO_PARALLELISM_MODE or process; thread suits free-threaded "
        "builds — results are identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist/recall per-layer configurations under DIR (default: "
        "$REPRO_CACHE_DIR or no disk cache)",
    )
    parser.add_argument(
        "--cache-backend",
        choices=("local", "sharded", "memory"),
        default=None,
        help="config-store layout for --cache-dir (default: "
        "$REPRO_CACHE_BACKEND or local); 'sharded' fans records over "
        "two directory levels plus a manifest for cluster-shared "
        "NFS/object-storage mounts, 'memory' keeps them in-process",
    )
    parser.add_argument(
        "--manifest-compact-ratio",
        type=float,
        default=None,
        metavar="R",
        help="auto-compact the sharded store's manifest once it exceeds "
        "R lines per live key (default: $REPRO_MANIFEST_COMPACT_RATIO "
        "or 4.0; 0 disables)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable all optimizer caching (cold-run timing)",
    )
    parser.add_argument(
        "--vectorize",
        dest="vectorize",
        action="store_true",
        default=None,
        help="force the columnar batch evaluator on (default: on when "
        "NumPy is available, or $REPRO_VECTORIZE)",
    )
    parser.add_argument(
        "--no-vectorize",
        dest="vectorize",
        action="store_false",
        help="run the scalar reference search path (identical results)",
    )
    parser.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="anytime budget per layer search in milliseconds (default: "
        "$REPRO_BUDGET_MS or unbudgeted); results are bit-identical to "
        "the unbudgeted search unless the budget is hit, in which case "
        "the best-so-far configuration is reported with its bound gap",
    )
    parser.add_argument(
        "--max-table-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="cap columnar candidate/schedule tables at BYTES, streaming "
        "rows in chunks with carried reductions (default: "
        "$REPRO_MAX_TABLE_BYTES or uncapped; identical results)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="input frames for frame-flexible networks (C3D, I3D, ...): "
        "sweeps like C3D at 8/16/32 frames need no code edits",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=None,
        metavar="N",
        help="serve mode: worker threads / max concurrent searches "
        "(default: $REPRO_SERVE_WORKERS or 4)",
    )
    parser.add_argument(
        "--serve-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="serve mode: admitted-request cap before backpressure "
        "rejections (default: $REPRO_SERVE_QUEUE_DEPTH or 64)",
    )
    parser.add_argument(
        "--serve-tenant-rate",
        type=float,
        default=None,
        metavar="R",
        help="serve mode: per-tenant admission quota in requests/second "
        "(default: $REPRO_SERVE_TENANT_RATE or unlimited)",
    )
    args = parser.parse_args(argv)
    if args.frames is not None and args.frames < 1:
        parser.error("--frames must be >= 1")
    try:
        config = build_config(args)
    except (OSError, ValueError) as error:
        parser.error(str(error))

    chosen = list(args.experiments or [])
    if chosen == ["serve"]:
        return _serve(args, config)
    unknown = [name for name in chosen if name not in EXPERIMENTS and name != "all"]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; choose from "
            f"{', '.join(EXPERIMENTS)} or 'all'"
        )
    if args.all or "all" in chosen or not chosen:
        chosen = list(EXPERIMENTS)

    fast = not args.thorough
    with Session(config) as session:
        for name in chosen:
            print(f"\n=== {name} " + "=" * (70 - len(name)))
            start = time.time()
            EXPERIMENTS[name](fast=fast, session=session)
            print(f"[{name} done in {time.time() - start:.1f}s]")
        # Engine counters plus per-backend recall statistics, merged with
        # the persisted cross-process sidecar of the session's store.
        print(f"\n{session.describe_statistics()}")
    return 0


def _serve(args: argparse.Namespace, config: SessionConfig) -> int:
    """The ``serve`` subcommand: a line-JSON loop over stdin/stdout.

    Each input line is one request (see :mod:`repro.serve.protocol`);
    responses print in completion order.  Exits on EOF or a
    ``{"op": "shutdown"}`` line, draining in-flight requests and
    flushing the session's cache statistics on the way out.
    """
    import asyncio

    from repro.serve import serve_stdio

    session = Session(config)
    engine = session.serve(
        max_workers=args.serve_workers,
        max_queue_depth=args.serve_queue_depth,
        tenant_rate=args.serve_tenant_rate,
    )
    try:
        asyncio.run(serve_stdio(engine))
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
