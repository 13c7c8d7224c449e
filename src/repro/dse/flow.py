"""The ADRIATIC design flow (paper Figure 3).

Orchestrates the system-level stages of the flow on a concrete design:

1. **System specification** — the executable specification: golden outputs
   of the workload, doubling as the test bench for every later stage.
2. **Architecture definition** — the Figure 1(a) architecture template.
3. **System partitioning** — profile the baseline run and apply the
   Section 5.1 rules of thumb to pick DRCF candidates.
4. **Mapping** — the DRCF transformation against a technology preset.
5. **System-level simulation** — run both architectures on the workload
   and collect the comparison metrics.
6. **Specification refinement / back-annotation** — re-run with refined
   per-context reconfiguration delays (e.g. numbers returned by back-end
   tools) and report the delta.

Each stage's artifact is kept on the :class:`FlowResult` so benches,
examples and documentation can show the full flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..apps import (
    JobRunner,
    frame_interleaved_jobs,
    golden_outputs,
    make_baseline_netlist,
)
from ..apps.soc import ACCELERATOR_CLASSES, SocInfo, accelerator_gate_counts
from ..core import Netlist, TransformResult, transform_to_drcf
from ..kernel import SimulationError, Simulator
from ..tech import ReconfigTechnology
from .partition import (
    BlockProfile,
    PartitionRecommendation,
    profiles_from_run,
    recommend_candidates,
)

if TYPE_CHECKING:
    from ..analysis.lint import LintReport


@dataclass
class StageRun:
    """Metrics of one simulated architecture."""

    makespan_us: float
    bus_config_words: int
    bus_data_words: int
    switches: int
    reconfig_time_us: float
    outputs_match_spec: bool


@dataclass
class FlowResult:
    """Artifacts of a full flow execution, stage by stage."""

    golden: Dict[str, List[int]]
    baseline_netlist: Netlist
    profiles: List[BlockProfile]
    recommendation: PartitionRecommendation
    transform: Optional[TransformResult]
    baseline_run: StageRun
    mapped_run: Optional[StageRun]
    back_annotated_run: Optional[StageRun] = None
    #: Static verification reports (repro.analysis.lint) of the stage-2
    #: template and the stage-4 mapped netlist.
    baseline_lint: Optional[LintReport] = None
    mapped_lint: Optional[LintReport] = None

    def summary_rows(self) -> List[Dict[str, object]]:
        """Comparison rows for the flow report."""
        rows = [dict(architecture="figure-1a baseline", **vars(self.baseline_run))]
        if self.mapped_run:
            rows.append(dict(architecture="figure-1b mapped", **vars(self.mapped_run)))
        if self.back_annotated_run:
            rows.append(
                dict(architecture="back-annotated", **vars(self.back_annotated_run))
            )
        return rows


class AdriaticFlow:
    """Executes the Figure 3 flow on a chosen application and technology."""

    def __init__(
        self,
        accels: Sequence[str] = ("fir", "fft", "viterbi", "xtea"),
        *,
        tech: ReconfigTechnology,
        n_frames: int = 2,
        seed: int = 42,
        designer_flags: Optional[Dict[str, Dict[str, bool]]] = None,
    ) -> None:
        unknown = [a for a in accels if a not in ACCELERATOR_CLASSES]
        if unknown:
            raise KeyError(f"unknown accelerators {unknown}")
        self.accels = tuple(accels)
        self.tech = tech
        self.n_frames = n_frames
        self.seed = seed
        self.designer_flags = designer_flags or {}

    # -- stage helpers -----------------------------------------------------
    def _run_architecture(self, netlist: Netlist, info: SocInfo, jobs) -> StageRun:
        sim = Simulator()
        design = netlist.elaborate(sim)
        runner = JobRunner(info.accel_bases, info.buffer_words)
        design[info.cpu_name].run_task(runner.task(jobs), name="workload")
        sim.run()
        if len(runner.results) != len(jobs):
            raise SimulationError("flow run incomplete")
        matches = all(r.outputs == golden_outputs(r.spec) for r in runner.results)
        bus = design[info.bus_name]
        if info.drcf_name and info.drcf_name in design:
            stats = design[info.drcf_name].stats.summary()
            switches = int(stats["switches"])
            reconfig_us = float(stats["reconfig_time_ns"]) / 1e3
        else:
            switches, reconfig_us = 0, 0.0
        self._last_design = design  # kept for profiling access
        return StageRun(
            makespan_us=max(r.end_ns for r in runner.results) / 1e3,
            bus_config_words=bus.monitor.words_by_tag("config"),
            bus_data_words=bus.monitor.words_without_tag("config"),
            switches=switches,
            reconfig_time_us=reconfig_us,
            outputs_match_spec=matches,
        )

    def run(self, *, back_annotate_scale: Optional[float] = None) -> FlowResult:
        """Execute all stages; optionally re-run with scaled reconfig delays.

        ``back_annotate_scale`` multiplies every context's extra delay, as
        if refined numbers came back from the back-end tools.
        """
        # Stage 1: executable specification.
        jobs = frame_interleaved_jobs(self.accels, self.n_frames, seed=self.seed)
        golden = {job.label: golden_outputs(job) for job in jobs}

        # Stage 2: architecture template (Figure 1a), statically verified
        # before anything simulates: a template that fails the model lint
        # would waste every later stage.  The lint is imported here, not at
        # module level, so simulation-only users of repro.dse never load it.
        from ..analysis.lint import run_lint

        baseline, info = make_baseline_netlist(self.accels)
        baseline_lint = run_lint(baseline, dataflow=True)
        if baseline_lint.has_errors:
            raise SimulationError(
                f"stage-2 architecture template fails lint:\n{baseline_lint.render()}"
            )

        # Stage 5a: simulate the baseline (also the profiling run).
        baseline_run = self._run_architecture(baseline, info, jobs)
        design = self._last_design
        window_ns = baseline_run.makespan_us * 1e3
        gates = accelerator_gate_counts(self.accels)
        accel_stats = {
            name: (gates[name], design[name].total_compute_time.to_ns())
            for name in self.accels
        }

        # Stage 3: partitioning by the rules of thumb.
        profiles = profiles_from_run(accel_stats, window_ns, flags=self.designer_flags)
        recommendation = recommend_candidates(profiles)

        transform: Optional[TransformResult] = None
        mapped_run: Optional[StageRun] = None
        back_run: Optional[StageRun] = None
        mapped_lint: Optional[LintReport] = None
        if recommendation.candidates:
            # Stage 4: mapping — fold the recommended candidates.  The
            # transform-precondition rules (REP304-REP306) run first so a
            # bad partitioning is rejected with diagnostics, not a stack
            # trace from inside the transformation.
            precheck = run_lint(
                baseline,
                candidates=recommendation.candidates,
                config_memory=info.config_memory_name,
                elaborate=False,
            )
            if precheck.has_errors:
                raise SimulationError(
                    f"stage-4 mapping preconditions fail lint:\n{precheck.render()}"
                )
            transform = transform_to_drcf(
                baseline,
                recommendation.candidates,
                tech=self.tech,
                config_memory=info.config_memory_name,
                config_base=info.cfg_base,
            )
            info.drcf_name = transform.report.drcf_name
            # The dataflow layer (REP4xx) runs on both elaborating gates:
            # the generated DRCF's process bodies are exactly the machine-
            # written code the static races/dead-waits analysis is for.
            mapped_lint = run_lint(transform.netlist, dataflow=True)
            if mapped_lint.has_errors:
                raise SimulationError(
                    f"stage-4 mapped netlist fails lint:\n{mapped_lint.render()}"
                )
            # Stage 5b: simulate the mapped architecture.
            mapped_run = self._run_architecture(transform.netlist, info, jobs)

            # Stage 6: back-annotation.
            if back_annotate_scale is not None:
                extra = {
                    alloc.name: alloc.extra_delay * back_annotate_scale
                    for alloc in transform.report.allocations
                }
                refined = transform_to_drcf(
                    baseline,
                    recommendation.candidates,
                    tech=self.tech,
                    config_memory=info.config_memory_name,
                    config_base=info.cfg_base,
                    extra_delays=extra,
                )
                back_run = self._run_architecture(refined.netlist, info, jobs)

        return FlowResult(
            golden=golden,
            baseline_netlist=baseline,
            profiles=profiles,
            recommendation=recommendation,
            transform=transform,
            baseline_run=baseline_run,
            mapped_run=mapped_run,
            back_annotated_run=back_run,
            baseline_lint=baseline_lint,
            mapped_lint=mapped_lint,
        )


def evaluate_flow(params: Dict[str, object]) -> Dict[str, object]:
    """Sweepable evaluator running the full Figure 3 flow at one point.

    Where :func:`~repro.dse.evaluators.evaluate_architecture` measures one
    architecture, this runs the *whole* ADRIATIC flow (baseline profiling,
    partitioning, transformation, mapped simulation) and reports the
    stage comparison — the row behind flow-level sweeps such as "which
    technology keeps the mapped makespan within 2x of the baseline?".

    Recognized parameters: ``tech`` (preset name, required to be
    reconfigurable), ``accels``, ``n_frames``, ``seed`` and
    ``back_annotate_scale``.  Module-level (picklable), so it parallelizes
    and caches like every other evaluator.
    """
    from ..tech import preset

    scale = params.get("back_annotate_scale")
    flow = AdriaticFlow(
        tuple(params.get("accels", ("fir", "fft", "viterbi", "xtea"))),
        tech=preset(str(params.get("tech", "virtex2pro"))),
        n_frames=int(params.get("n_frames", 2)),
        seed=int(params.get("seed", 42)),
    )
    result = flow.run(
        back_annotate_scale=float(scale) if scale is not None else None
    )
    metrics: Dict[str, object] = {
        "candidates": ",".join(result.recommendation.candidates),
        "baseline_makespan_us": result.baseline_run.makespan_us,
        "baseline_ok": result.baseline_run.outputs_match_spec,
    }
    if result.mapped_run is not None:
        metrics.update(
            mapped_makespan_us=result.mapped_run.makespan_us,
            mapped_ok=result.mapped_run.outputs_match_spec,
            mapped_slowdown=result.mapped_run.makespan_us
            / result.baseline_run.makespan_us,
            switches=result.mapped_run.switches,
            reconfig_time_us=result.mapped_run.reconfig_time_us,
            bus_config_words=result.mapped_run.bus_config_words,
        )
    if result.back_annotated_run is not None:
        metrics["back_annotated_makespan_us"] = result.back_annotated_run.makespan_us
    return metrics
