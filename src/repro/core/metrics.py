"""Run-level metric aggregation.

Collects the quantities the paper's methodology exists to expose — context
activity, reconfiguration overhead, bus traffic split into data vs
configuration, utilizations — into one report structure the examples and
benches print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bus import Bus
from ..kernel import Simulator
from .drcf import Drcf
from .power import PowerModel


@dataclass
class RunReport:
    """A flattened metric dictionary plus rendering helpers."""

    values: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def render(self, title: str = "run report") -> str:
        lines = [title]
        width = max((len(k) for k in self.values), default=0)
        for key, value in self.values.items():
            if isinstance(value, float):
                lines.append(f"  {key.ljust(width)} : {value:,.3f}")
            else:
                lines.append(f"  {key.ljust(width)} : {value}")
        return "\n".join(lines)


def collect_run_metrics(
    sim: Simulator,
    *,
    bus: Optional[Bus] = None,
    drcf: Optional[Drcf] = None,
    extra: Optional[Dict[str, object]] = None,
) -> RunReport:
    """Gather kernel, bus and DRCF metrics after a run."""
    values: Dict[str, object] = {
        "sim_time_us": sim.now.to_us(),
        "delta_cycles": sim.stats.delta_cycles,
        "process_executions": sim.stats.process_executions,
    }
    if bus is not None:
        summary = bus.monitor.summary()
        values.update(
            bus_transactions=summary["transactions"],
            bus_total_words=summary["total_words"],
            bus_config_words=summary["config_words"],
            bus_data_words=summary["data_words"],
            bus_utilization=bus.monitor.utilization(sim.now),
            bus_mean_arb_wait_ns=summary["mean_arbitration_wait_ns"],
        )
    if drcf is not None:
        summary = drcf.stats.summary()
        values.update(
            drcf_calls=summary["calls"],
            drcf_switches=summary["switches"],
            drcf_fetch_misses=summary["fetch_misses"],
            drcf_resident_hits=summary["resident_hits"],
            drcf_prefetch_hits=summary["prefetch_hits"],
            drcf_active_time_us=summary["active_time_ns"] / 1e3,
            drcf_reconfig_time_us=summary["reconfig_time_ns"] / 1e3,
            drcf_overhead_fraction=summary["reconfig_overhead_fraction"],
            drcf_config_words=summary["config_words"],
        )
        energy = PowerModel(drcf.tech).drcf_total(drcf, sim.now)
        values["drcf_energy_mj"] = energy.total_j * 1e3
    if extra:
        values.update(extra)
    return RunReport(values=values)


def per_context_rows(drcf: Drcf) -> List[Dict[str, object]]:
    """Per-context instrumentation as table rows (step 5 of the protocol)."""
    summary = drcf.stats.summary()["per_context"]
    rows: List[Dict[str, object]] = []
    for name, stats in summary.items():
        rows.append({"context": name, **stats})
    return rows
