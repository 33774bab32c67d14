"""Readers the benchmark attaches from outside the simulator.

Nothing here edits ``repro``: the build timer wraps the public
:class:`repro.cluster.Cluster` constructor for the duration of a run and
restores it afterwards, the GC timer hangs off :data:`gc.callbacks`, and
the counter reader calls the layers' public ``register_metrics`` hooks
and ``Cluster.total_*`` properties into the benchmark's own registry.
"""

from __future__ import annotations

import gc
import time

from repro.cluster import Cluster
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["BuildTimer", "GcTimer", "STAGES", "COUNTERS", "read_counters",
           "stage_metric", "stage_sums"]

#: Figure-7 canonical stages reported as ``stage.<name>_ns``; any other
#: group folds into ``other``
STAGES = ("compose", "trap", "check", "translate/pin", "SRQ fill", "mcp",
          "wire", "dma", "poll", "event check", "shm", "copy", "upper",
          "serve", "interrupt", "other")

#: registry series summed over every cluster, by per-layer metric name
_SERIES = {
    "hw.pio_words": "repro_pio_words_total",
    "hw.switch_forwards": "repro_switch_packets_forwarded_total",
    "hw.link_busy_ns": "repro_link_busy_ns",
    "firmware.nic_coll_packets": "repro_nic_coll_packets_total",
    "kernel.pindown_hits": "repro_pindown_hits_total",
    "kernel.pindown_misses": "repro_pindown_misses_total",
}

#: simulated counters accumulated by :func:`read_counters`
COUNTERS = ("sim.events", "kernel.traps", "kernel.interrupts",
            "firmware.retransmissions", "hw.dma_bytes") + tuple(_SERIES)


def stage_metric(stage: str) -> str:
    """``"translate/pin"`` -> ``"stage.translate_pin_ns"``."""
    slug = stage.lower().replace("/", "_").replace(" ", "_")
    return f"stage.{slug}_ns"


class BuildTimer:
    """Times every ``Cluster(...)`` construction while installed, on
    ``clock`` (seconds).

    With ``hold=True`` (traced runs only) the clusters built since the
    last :meth:`take` are kept alive so their counters can be read once
    the cell that built them returns; otherwise no reference is kept.
    """

    def __init__(self, clock=time.perf_counter, hold: bool = False):
        self.clock = clock
        self.hold = hold
        self.builds = 0
        self.build_s = 0.0
        self._held: list = []
        self._original = None

    def __enter__(self) -> "BuildTimer":
        original = self._original = Cluster.__init__
        timer = self

        def timed_init(cluster, *args, **kwargs):
            start = timer.clock()
            original(cluster, *args, **kwargs)
            timer.build_s += timer.clock() - start
            timer.builds += 1
            if timer.hold:
                timer._held.append(cluster)

        Cluster.__init__ = timed_init
        return self

    def __exit__(self, *exc) -> None:
        Cluster.__init__ = self._original
        self._held.clear()

    def take(self) -> list:
        """The clusters held since the last call (empty unless held)."""
        held, self._held = self._held, []
        return held


class GcTimer:
    """Counts cyclic-GC collections and their pause time."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def read_counters(clusters: list, totals: dict) -> None:
    """Add the simulated counters of ``clusters`` into ``totals``."""
    envs = {}
    for cluster in clusters:
        envs[id(cluster.env)] = cluster.env
        totals["kernel.traps"] += cluster.total_traps
        totals["kernel.interrupts"] += cluster.total_interrupts
        totals["firmware.retransmissions"] += cluster.total_retransmissions
        registry = MetricsRegistry()
        for node in cluster.nodes:
            totals["hw.dma_bytes"] += node.pci.dma_bytes
            node.kernel.register_metrics(registry)
            node.nic.register_metrics(registry)
        for mcp in cluster.mcps:
            mcp.register_metrics(registry)
        cluster.network.register_metrics(registry)
        by_name: dict = {}
        for instrument in registry:
            by_name[instrument.name] = (by_name.get(instrument.name, 0)
                                        + instrument.value())
        for metric, series in _SERIES.items():
            totals[metric] += int(by_name.get(series, 0))
    totals["sim.events"] += sum(env.events_processed
                                for env in envs.values())


def stage_sums(tables) -> dict:
    """Sum ``stage_table`` rows (``[stage, us]``) into ns per stage."""
    totals = dict.fromkeys(STAGES, 0)
    for table in tables:
        for stage, us in table:
            key = stage if stage in totals else "other"
            totals[key] += int(round(us * 1000))
    return totals
