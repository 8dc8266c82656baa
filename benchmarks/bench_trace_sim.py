"""Benchmarks of the validation simulators: columnar pass vs scalar walk.

``test_bench_trace_columnar_vs_scalar`` is the columnar simulation
engine's acceptance gate: on the C3D reference conv layer the columnar
trace pass must be >= 20x faster than the scalar residency walk while
producing bit-identical per-level fill/writeback/slide counters.  The
measured ratio (and the pipeline simulator's) lands in
``BENCH_trace_sim.json`` so the nightly job tracks the trajectory.
"""

import time

from repro.arch.accelerator import morph
from repro.core.dataflow import Dataflow, Parallelism
from repro.core.dims import ALL_DATA_TYPES
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileHierarchy, TileShape
from repro.sim.pipeline_sim import simulate_pipeline
from repro.sim.trace import trace_dataflow

#: C3D conv2 (Tran et al. shapes, the paper's Table III workload): the
#: reference layer for the trace-simulator gate.
LAYER = ConvLayer(
    "c3d2", h=56, w=56, c=64, f=16, k=128, r=3, s=3, t=3,
    pad_h=1, pad_w=1, pad_f=1,
)
HIERARCHY = TileHierarchy(
    LAYER,
    (
        TileShape(w=28, h=14, c=64, k=8, f=8),
        TileShape(w=14, h=7, c=32, k=8, f=4),
        TileShape(w=7, h=7, c=8, k=8, f=2),
    ),
)
DATAFLOW = Dataflow(
    LoopOrder.parse("WHCKF"),
    LoopOrder.parse("CFWHK"),
    HIERARCHY,
    Parallelism(h=2, w=2, k=24),
)


def _assert_identical_reports(a, b) -> None:
    for i, (ba, bb) in enumerate(zip(a.boundaries, b.boundaries)):
        for dt in ALL_DATA_TYPES:
            assert ba.fills[dt] == bb.fills[dt], (i, dt)
            assert ba.fill_bytes[dt] == bb.fill_bytes[dt], (i, dt)
        assert ba.psum_load_bytes == bb.psum_load_bytes, i
        assert ba.psum_writeback_bytes == bb.psum_writeback_bytes, i
    assert a.dram_psum_writeback_bytes() == b.dram_psum_writeback_bytes()


def test_bench_trace_columnar_vs_scalar(timed_pedantic, record_bench):
    """Full-schedule residency trace: columnar pass vs scalar walk.

    Same simulator (shared kernels), bit-identical counters — the only
    variable is walking tiles one by one versus array passes over the
    schedule's coordinate tables.  Gate: >= 20x.
    """
    start = time.perf_counter()
    scalar = trace_dataflow(DATAFLOW, vectorize=False)
    scalar_s = time.perf_counter() - start

    columnar, columnar_s = timed_pedantic(
        trace_dataflow, stat="min", args=(DATAFLOW,),
        kwargs=dict(vectorize=True), rounds=3, iterations=1, warmup_rounds=1,
    )

    _assert_identical_reports(scalar, columnar)
    speedup = scalar_s / columnar_s
    record_bench(
        trace_scalar_s=round(scalar_s, 4),
        trace_columnar_s=round(columnar_s, 4),
        trace_speedup=round(speedup, 1),
        trace_dram_fill_bytes={
            dt.value: scalar.boundaries[0].fill_bytes[dt]
            for dt in ALL_DATA_TYPES
        },
    )
    assert speedup >= 20.0, f"columnar trace only {speedup:.1f}x faster"


def test_bench_pipeline_columnar_vs_scalar(timed_pedantic, record_bench):
    """Double-buffered pipeline timing: columnar pass vs scalar walk."""
    arch = morph()
    start = time.perf_counter()
    scalar = simulate_pipeline(DATAFLOW, arch, vectorize=False)
    scalar_s = time.perf_counter() - start

    columnar, columnar_s = timed_pedantic(
        simulate_pipeline, stat="min", args=(DATAFLOW, arch),
        kwargs=dict(vectorize=True), rounds=3, iterations=1, warmup_rounds=1,
    )

    assert columnar == scalar  # every field, cycles included, bit-identical
    record_bench(
        pipeline_scalar_s=round(scalar_s, 5),
        pipeline_columnar_s=round(columnar_s, 5),
        pipeline_speedup=round(scalar_s / columnar_s, 1),
        pipeline_tiles=columnar.tiles,
        pipeline_cycles=columnar.cycles,
    )
