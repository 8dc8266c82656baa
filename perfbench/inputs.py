"""Seeded inputs for the three workloads.

Everything here is built from public constructors only (``ConvLayer``,
``build_network``).  The run seed decides order, arrival times and
tenants; the multiset of requests of every workload does not depend on
it, so ``model_energy_uj`` repeats exactly across seeds while each seed
still gets its own input sequence (and digest).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

#: Registered 3D networks whose unique layer shapes form the cold pool.
COLD_NETWORKS = ("c3d", "c3d_dilated", "i3d", "r2plus1d", "resnet3d50", "two_stream")

#: The warm_recall project (109 layers), swept in a seed-permuted order.
WARM_PROJECT = ("c3d", "two_stream", "r2plus1d", "i3d")

#: serve_open traffic: one fixed arrival rate and mix.
SERVE_RATE_PER_S = 12.0
SERVE_POPULAR_SHARE = 0.9167
SERVE_FRESH_SHARE = 1 / 16
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: The popular set: the two cheapest fast-preset searches of the cold
#: pool, so its cold-start transient (~0.1 s, when duplicates coalesce)
#: stays below the fresh searches that should set the tail.
SERVE_POPULAR = ("resnet3d50/res3a_proj", "c3d/layer4b")
SERVE_DEADLINE_SIZE = 3
#: Small enough that the anytime search is always cut after its first
#: block, so deadline requests never complete and never enter a cache.
SERVE_DEADLINE_MS = 10.0
#: Fixed seeds of the seed-independent pools (fresh layers and the
#: deadline set).  Changing one invalidates ``expected.json``.
FRESH_POOL_SEED = 2018
FRESH_POOL_SIZE = 120
DEADLINE_SET_SEED = 11


def shape_key(layer) -> tuple:
    """A layer's shape without its name (names never change a search)."""
    return dataclasses.astuple(dataclasses.replace(layer, name=""))


def cold_pool() -> list:
    """Unique layer shapes of the registered 3D networks, first occurrence
    order (the name kept is the first network's)."""
    from repro import build_network

    seen: dict[tuple, object] = {}
    for name in COLD_NETWORKS:
        for layer in build_network(name).layers:
            key = shape_key(layer)
            if key not in seen:
                seen[key] = dataclasses.replace(layer, name=f"{name}/{layer.name}")
    return list(seen.values())


def fresh_layer(rng: random.Random, index: int):
    """One Res3D-style layer: full 3D, (2+1)D spatial or temporal factor,
    pointwise or dilated, with strided and frame-count variety."""
    from repro import ConvLayer

    kind = rng.choice(("3d", "spatial", "temporal", "pointwise", "dilated"))
    hw = rng.choice((14, 28, 56))
    frames = rng.choice((4, 8, 16))
    c = rng.choice((32, 64, 96, 128, 192, 256))
    k = rng.choice((32, 64, 128, 256))
    stride = rng.choice((1, 1, 2))
    stride_f = rng.choice((1, 1, 2))
    r, t, dilation = {
        "3d": (3, 3, 1),
        "spatial": (3, 1, 1),
        "temporal": (1, 3, 1),
        "pointwise": (1, 1, 1),
        "dilated": (3, 3, 2),
    }[kind]
    pad = (r // 2) * dilation
    pad_f = (t // 2) * dilation
    return ConvLayer(
        name=f"fresh{index}_{kind}",
        h=hw, w=hw, c=c, f=frames, k=k, r=r, s=r, t=t,
        stride_h=stride, stride_w=stride, stride_f=stride_f,
        pad_h=pad, pad_w=pad, pad_f=pad_f,
        dilation_h=dilation, dilation_w=dilation, dilation_f=dilation,
    )


def fresh_pool() -> list:
    """The fixed pool of generated layers (distinct shapes, none of them
    in the cold pool)."""
    rng = random.Random(FRESH_POOL_SEED)
    taken = {shape_key(layer) for layer in cold_pool()}
    pool = []
    while len(pool) < FRESH_POOL_SIZE:
        layer = fresh_layer(rng, len(pool))
        if shape_key(layer) not in taken:
            taken.add(shape_key(layer))
            pool.append(layer)
    return pool


def serve_sets() -> tuple[list, list]:
    """The popular set and the deadline set (a fixed draw from the rest
    of the cold pool)."""
    pool = cold_pool()
    popular = [layer for layer in pool if layer.name in SERVE_POPULAR]
    rest = [layer for layer in pool if layer.name not in SERVE_POPULAR]
    return popular, random.Random(DEADLINE_SET_SEED).sample(rest, SERVE_DEADLINE_SIZE)


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One serve_open request: when it is due, what it asks for."""

    index: int
    due_s: float
    kind: str  # "popular" | "fresh" | "deadline"
    tenant: str
    layer: object
    deadline_ms: float | None


def serve_counts(seconds: float) -> tuple[int, int, int]:
    """(popular, fresh, deadline) request counts for a window: fixed by
    the window length, never by the seed."""
    total = max(len(SERVE_POPULAR) + 2, round(SERVE_RATE_PER_S * seconds))
    fresh = min(FRESH_POOL_SIZE, max(1, round(SERVE_FRESH_SHARE * total)))
    popular = max(len(SERVE_POPULAR), round(SERVE_POPULAR_SHARE * total))
    deadline = max(1, total - popular - fresh)
    return popular, fresh, deadline


def serve_schedule(seed: int, seconds: float) -> list[Arrival]:
    """Seeded arrivals with a fixed count per kind.

    Popular and deadline requests are Poisson: a fixed count placed
    uniformly on the window (a Poisson process conditioned on its count).
    Fresh requests arrive one per equal slot, at a seeded offset in the
    slot's middle half, so two cold searches never start within half a
    slot of each other; with Poisson fresh arrivals the tail of a 20 s
    window was set by how many random clusters it happened to hold.
    """
    rng = random.Random(seed)
    popular_set, deadline_set = serve_sets()
    n_popular, n_fresh, n_deadline = serve_counts(seconds)
    fresh = fresh_pool()[:n_fresh]
    rng.shuffle(fresh)
    slot = seconds / n_fresh
    timed = [(slot * (i + rng.uniform(0.25, 0.75)), "fresh", layer, None)
             for i, layer in enumerate(fresh)]
    # Each popular and deadline layer is asked for equally often, so the
    # seed moves timing and order, never the mix.
    timed += [(rng.uniform(0.0, seconds), "popular", popular_set[i % len(popular_set)], None)
              for i in range(n_popular)]
    timed += [(rng.uniform(0.0, seconds), "deadline", deadline_set[i % len(deadline_set)],
               SERVE_DEADLINE_MS) for i in range(n_deadline)]
    timed.sort(key=lambda item: item[0])
    return [
        Arrival(
            index=i,
            due_s=due,
            kind=kind,
            tenant=rng.choice(SERVE_TENANTS),
            layer=dataclasses.replace(layer, name=f"r{i}:{layer.name}"),
            deadline_ms=deadline,
        )
        for i, (due, kind, layer, deadline) in enumerate(timed)
    ]


def cold_sequence(seed: int) -> list:
    """Every other shape of the cold pool (51 of 102, all six networks
    represented) in seed order.  A pass over all 102 took 43-100 s on a
    2-core host whose speed varies two-fold, too long for the run budget;
    a fixed half keeps the set seed-independent."""
    pool = cold_pool()[::2]
    random.Random(seed).shuffle(pool)
    return pool


def warm_sequence(seed: int) -> list[str]:
    project = list(WARM_PROJECT)
    random.Random(seed).shuffle(project)
    return project


def digest(items) -> str:
    """Short sha256 of an input sequence's canonical JSON form."""
    def canon(item):
        if dataclasses.is_dataclass(item):
            return {f.name: canon(getattr(item, f.name))
                    for f in dataclasses.fields(item)}
        return item

    text = json.dumps([canon(item) for item in items], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sequence(workload: str, seed: int, seconds: float) -> list:
    if workload == "cold_search":
        return cold_sequence(seed)
    if workload == "warm_recall":
        return warm_sequence(seed)
    if workload == "serve_open":
        return serve_schedule(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
