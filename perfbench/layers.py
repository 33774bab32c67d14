"""Fold a cProfile call graph into per-layer self time and call counts.

A *layer* is a ``repro`` subpackage (``repro/sim`` -> ``sim``) or one of
the top-level modules (``repro/cluster.py`` -> ``cluster``).  Code that
is not in ``repro`` -- C builtins, the standard library, numpy -- owns no
layer of its own: its self time and calls are charged to the layers that
called it, split by what each caller contributed (self time for
``self_s``, call count for ``calls``), recursively through callers that
are themselves outside ``repro``.  The benchmark's own frames form the
``bench`` layer, and anything with no ``repro`` or benchmark caller at
all (interpreter start-up frames, a profiler's own entry) lands in
``other``.  Every profiled function is charged exactly once in total, so
the layer shares of self time sum to 1.

This module imports nothing from ``repro`` so it can be tested on a
synthetic call graph.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["LAYERS", "REPRO_LAYERS", "layer_of", "fold"]

#: every ``repro`` subpackage and top-level module, by layer name
REPRO_LAYERS = (
    "sim", "hw", "firmware", "kernel", "bcl", "upper", "serve",
    "workloads", "baselines", "experiments", "config", "cluster",
    "telemetry", "instrument", "audit", "faults", "fuzz",
)

#: every layer a profile folds into; ``repro`` holds the package's own
#: ``__init__``/CLI modules and any subpackage not listed above
LAYERS = REPRO_LAYERS + ("repro", "bench", "other")

# pstats stat tuple: (primitive calls, calls, self time, cumulative, callers)
_NC, _TT, _CALLERS = 1, 2, 4


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> Optional[str]:
    """The layer that owns code in ``filename``, or ``None`` for code
    outside ``repro`` and the benchmark (builtins report ``"~"``)."""
    for root, owner in ((repro_dir, None), (bench_dir, "bench")):
        prefix = root.rstrip(os.sep) + os.sep
        if not filename.startswith(prefix):
            continue
        if owner is not None:
            return owner
        first = filename[len(prefix):].split(os.sep, 1)[0]
        name = first[:-3] if first.endswith(".py") else first
        return name if name in REPRO_LAYERS else "repro"
    return None


def _distribution(func, stats: dict, owner: dict, weight: int,
                  memo: dict, active: set) -> dict:
    """Layer -> fraction of ``func``'s cost that its callers own."""
    layer = owner.get(func)
    if layer is not None:
        return {layer: 1.0}
    if func in memo:
        return memo[func]
    if func in active or func not in stats:
        return {"other": 1.0}
    callers = stats[func][_CALLERS]
    if not callers:
        return {"other": 1.0}
    total = sum(edge[weight] for edge in callers.values())
    active.add(func)
    dist: dict[str, float] = {}
    for caller, edge in sorted(callers.items()):
        # With no weight recorded on any edge (a zero-time leaf), split
        # evenly across callers instead of dropping the cost.
        frac = edge[weight] / total if total else 1.0 / len(callers)
        if frac == 0.0:
            continue
        for layer, part in _distribution(caller, stats, owner, weight,
                                         memo, active).items():
            dist[layer] = dist.get(layer, 0.0) + frac * part
    active.discard(func)
    memo[func] = dist
    return dist


def fold(stats: dict, repro_dir: str, bench_dir: str) -> dict:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {"self_s", "calls"}}``.

    Every layer of :data:`LAYERS` is present.  ``calls`` is rounded to
    a whole number after folding (fractions arise only where a callee
    outside ``repro`` is reached through another one).
    """
    owner = {func: layer_of(func[0], repro_dir, bench_dir)
             for func in stats}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for totals, index in ((self_s, _TT), (calls, _NC)):
        memo: dict = {}
        for func, stat in stats.items():
            amount = stat[index]
            if not amount:
                continue
            for layer, part in _distribution(func, stats, owner, index,
                                             memo, set()).items():
                totals[layer] += amount * part
    return {layer: {"self_s": self_s[layer], "calls": round(calls[layer])}
            for layer in LAYERS}

