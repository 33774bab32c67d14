"""The benchmark's four workloads, driven through public entry points.

Each workload is a fixed list of *units* -- one experiment cell, fabric
cell or serve point -- that make up one *pass*.  A unit returns its
simulated output as JSON-able data; the harness times the pass, checks
each unit's output and digests all of them.  Every workload is a
host-side closed loop: the next unit starts only when the previous one
has finished.

* ``paper``: the paper's 2-node evaluation (Tables 1-3, Figures 5-9,
  the Section 5 overheads) plus the seven ablations.  Seed-free.
* ``fabric``: a 256-rank host barrier and a 1024-rank NIC barrier on a
  fat tree, with the seed as the ECMP seed.
* ``serve``: the RPC tier at rho 0.8 (pre-saturation) and rho 1.4
  (overload), Poisson arrivals drawn from the seed.
* ``observed``: the ``paper`` units with telemetry, the auditor and the
  flight recorder switched on through their global switches; each
  unit's output must equal the unobserved output.  Seed-free.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro import audit, telemetry
from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.experiments import runner
from repro.experiments.common import PAPER
from repro.serve.config import ServeConfig
from repro.experiments.scale import _StageAggregator
from repro.serve.tier import run_serve
from repro.telemetry import recorder

__all__ = ["Unit", "Workload", "WORKLOADS", "make_workload", "digest",
           "paper_err_pct", "disable_observers"]

#: Table 3 cells' measurements, by layer, against the paper's numbers
_TABLE3_PAPER = {
    "bcl": {"intra_latency_us": PAPER["oneway_0b_intra_us"],
            "inter_latency_us": PAPER["oneway_0b_inter_us"],
            "intra_bandwidth_mb_s": PAPER["peak_bw_intra_mb_s"],
            "inter_bandwidth_mb_s": PAPER["peak_bw_inter_mb_s"]},
    "mpi": {"intra_latency_us": PAPER["mpi_latency_intra_us"],
            "inter_latency_us": PAPER["mpi_latency_inter_us"],
            "intra_bandwidth_mb_s": PAPER["mpi_bw_intra_mb_s"],
            "inter_bandwidth_mb_s": PAPER["mpi_bw_inter_mb_s"]},
    "pvm": {"intra_latency_us": PAPER["pvm_latency_intra_us"],
            "inter_latency_us": PAPER["pvm_latency_inter_us"],
            "intra_bandwidth_mb_s": PAPER["pvm_bw_intra_mb_s"],
            "inter_bandwidth_mb_s": PAPER["pvm_bw_inter_mb_s"]},
}

#: the units that carry every paper number ``paper_err_pct`` averages
REFERENCE_UNITS = tuple(f"table3.layer:layer={layer}"
                        for layer in _TABLE3_PAPER) + ("overheads.run:",)

#: the serve deployment's offered loads: pre-saturation, then overload
SERVE_RHOS = (0.8, 1.4)
#: requests per serve point.  At rho 0.8 all complete, so the p99 has
#: 24 samples beyond it.  Over seeds 1-8 the events of a pass vary by
#: 2.5 % (standard deviation) at 1200 requests and by 1.6 % at 2400.
SERVE_REQUESTS = 2400
#: fabric cells: (ranks, collectives) on a fat tree, barrier op
FABRIC_CELLS = ((256, "host"), (1024, "nic"))


@dataclass(frozen=True)
class Unit:
    """One closed-loop step of a pass."""

    name: str
    run: Callable[[], dict]


def digest(outputs) -> str:
    """16-hex digest of simulated outputs (canonical JSON)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def paper_err_pct(outputs: dict) -> float:
    """Mean |measured - paper| / paper, in %, over the 22 paper numbers
    in the Table 3 and Section 5 overhead outputs."""
    errors = []
    for layer, paper in _TABLE3_PAPER.items():
        row = outputs[f"table3.layer:layer={layer}"]
        errors += [abs(row[key] - ref) / ref for key, ref in paper.items()]
    for row in outputs["overheads.run:"]["rows"]:
        if row.get("paper"):
            errors.append(abs(row["measured"] - row["paper"]) / row["paper"])
    return 100.0 * sum(errors) / len(errors)


def disable_observers() -> None:
    """Clear the global observer switches (and their environment
    variables), so only ``observed`` runs with observers attached."""
    for module in (audit, telemetry, recorder):
        module.disable()


def _cell_unit(cell, cfg=DAWNING_3000) -> Unit:
    params = ",".join(f"{k}={v}" for k, v in cell.params)
    return Unit(f"{cell.fn}:{params}",
                lambda: runner.run_cell(cell.fn, cfg, **cell.kwargs()))


class Workload:
    """A named, fixed pass of units plus its output checks."""

    name = ""
    #: does ``--seed`` reach the simulation?
    seeded = False
    #: must every output equal that of an unobserved reference pass?
    needs_reference = False

    def __init__(self, seed: int):
        self.seed = seed
        #: unit name -> output of the reference pass, filled in by the
        #: harness when :attr:`needs_reference` is set
        self.reference: dict = {}

    def prepare(self) -> None:
        """Untimed set-up after any reference pass, before the first
        timed pass."""

    def finish(self) -> None:
        """Undo :meth:`prepare`."""

    def units(self) -> list[Unit]:
        raise NotImplementedError

    def check(self, unit: str, output: dict) -> Optional[str]:
        """A failure message for a wrong output, else ``None``."""
        if not _finite(output):
            return "non-finite simulated value"
        return None

    def results(self, outputs: dict) -> dict:
        """Simulated result metrics from one pass's outputs."""
        return {}


class Paper(Workload):
    name = "paper"

    def units(self) -> list[Unit]:
        cells: dict = {}
        for experiment in runner.plan(include_extensions=False):
            for cell in experiment.plan(DAWNING_3000):
                cells.setdefault(cell)
        return [_cell_unit(cell) for cell in cells]

    def results(self, outputs: dict) -> dict:
        return {"paper_err_pct": paper_err_pct(outputs)}


class Observed(Paper):
    name = "observed"
    needs_reference = True

    def prepare(self) -> None:
        for module in (audit, telemetry, recorder):
            module.enable()

    def finish(self) -> None:
        disable_observers()

    def check(self, unit: str, output: dict) -> Optional[str]:
        # The pure-observer property.  A unit whose reference run failed
        # is already counted as failed.
        if unit in self.reference and output != self.reference[unit]:
            return "observers changed the simulated output"
        return super().check(unit, output)


class Fabric(Workload):
    name = "fabric"
    seeded = True

    def units(self) -> list[Unit]:
        cfg = DAWNING_3000.replace(ecmp_seed=self.seed)
        return [Unit(f"fat_tree.barrier:{n}-{coll}",
                     lambda n=n, coll=coll: runner.run_cell(
                         "scale.point", cfg, n_ranks=n, topology="fat_tree",
                         collectives=coll, op="barrier"))
                for n, coll in FABRIC_CELLS]

    def check(self, unit: str, output: dict) -> Optional[str]:
        # run_spmd returns only once every rank's process has finished.
        if not output["latency_us"] > 0:
            return "non-positive barrier latency"
        return super().check(unit, output)

    def results(self, outputs: dict) -> dict:
        host, nic = (outputs[f"fat_tree.barrier:{n}-{coll}"]
                     for n, coll in FABRIC_CELLS)
        return {"upper.sim_host_barrier_us": host["latency_us"],
                "firmware.sim_nic_barrier_us": nic["latency_us"]}


def _serve_point(scfg: ServeConfig, rho: float) -> dict:
    """One ``ext-serve`` point (traced cluster, stage table) at the
    benchmark's seed."""
    cluster = Cluster(n_nodes=scfg.n_servers + scfg.n_client_ranks,
                      trace=True)
    stages = _StageAggregator(cluster.tracer)
    stages.armed = True
    output = run_serve(scfg, rho, cluster=cluster).to_dict()
    output["stage_table"] = stages.table()
    return output


class Serve(Workload):
    name = "serve"
    seeded = True

    def units(self) -> list[Unit]:
        scfg = ServeConfig(requests=SERVE_REQUESTS, seed=self.seed)
        return [Unit(f"serve.point:rho={rho}",
                     lambda rho=rho: _serve_point(scfg, rho))
                for rho in SERVE_RHOS]

    def check(self, unit: str, output: dict) -> Optional[str]:
        settled = (output["completed_ok"] + output["shed_server"]
                   + output["shed_client"])
        if settled != output["requests"]:
            return (f"ok + shed = {settled} != offered "
                    f"{output['requests']}")
        if output["rho"] == SERVE_RHOS[0] and \
                output["completed_ok"] < 1000:
            return "fewer than 1000 completions before saturation"
        return super().check(unit, output)

    def results(self, outputs: dict) -> dict:
        low, high = (outputs[f"serve.point:rho={rho}"] for rho in SERVE_RHOS)
        return {"serve.sim_p50_us": low["p50_us"],
                "serve.sim_p99_us": low["p99_us"],
                "serve.sim_goodput_rps": high["goodput_rps"]}


WORKLOADS = {cls.name: cls for cls in (Paper, Fabric, Serve, Observed)}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
