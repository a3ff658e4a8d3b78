"""The traced run: which function stands for which layer, and the metrics.

Every layer is measured at its public entry point, patched where the program
looks it up:

* ``repro.scenarios.runner`` module globals (``synthesize_trace``,
  ``build_simulator``) — ``run_scenario`` calls them by global name;
* ``repro.sim.placement.policies.solve_routing`` / ``solve_cache_placement``
  — imported by name into ``policies``, so patching ``network`` would miss
  every call;
* class methods (``PhaseCollector.__call__``, ``MultiCellSimulator.replay``,
  ``VectorizedSimulator.replay``, the sender/receiver edge servers, the
  transmission pipeline, the decoder synchronizer, and the set-up steps
  ``KnowledgeBaseLibrary.pretrain`` and ``DomainClassifier.fit``).

All patches go in for every workload, so a layer a workload does not use
reports 0.  Every patch is undone after each traced call.

``repro.sim.sharded`` is not measured: its fork workers would fill both
cores of a small shared host, and the benchmark would time the scheduler.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from e2e_bench.tracing import Tracer, wrapper_cost_s
from e2e_bench.workloads import CallResult, SemanticWorkload, run_calls

PER_LAYER_UNITS: Dict[str, str] = {
    # repro.scenarios
    "scenarios.synth_s": "s",
    "sim.build_s": "s",
    "scenarios.hook_s": "s",
    "scenarios.hook_calls": "count",
    "scenarios.hook_wrap_overhead_s": "s",
    # repro.sim (serial event loop and cells)
    "sim.replay_self_s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.replay_hook_share": "ratio",
    # repro.sim.placement
    "placement.solve_s": "s",
    "placement.solves": "count",
    "placement.forwards": "count",
    # repro.sim.resilience
    "resilience.retries": "count",
    "resilience.hedges": "count",
    "resilience.hedge_wins": "count",
    "resilience.shed": "count",
    "resilience.deadline_exceeded": "count",
    "resilience.breaker_transitions": "count",
    # repro.sim.vectorized
    "vectorized.serial_s": "s",
    "vectorized.serial_share": "ratio",
    "vectorized.fallbacks": "count",
    # modeled cell behaviour (must not move for a speed-only change)
    "cells.neighbor_fetches": "count",
    "cells.cloud_fetches": "count",
    "cells.coalesced": "count",
    "cells.failovers": "count",
    "cells.handovers": "count",
    "batching.mean_batch_size": "requests",
    "cells.compute_busy_s": "modeled_s",
    "cells.backhaul_mb": "MB",
    # repro.selection, repro.semantic + repro.nn, repro.channel, repro.core,
    # repro.federated
    "selection.select_s": "s",
    "semantic.encode_s": "s",
    "channel.transmit_s": "s",
    "semantic.restore_s": "s",
    "core.record_s": "s",
    "core.session_self_s": "s",
    "semantic.finetune_s": "s",
    "semantic.finetunes": "count",
    "federated.sync_s": "s",
    "federated.sync_bytes": "bytes",
    "semantic.pretrain_s": "s",
    "selection.fit_s": "s",
    # the tracing itself
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

#: Summary-table columns summed into per-layer counts.
_ROW_COUNTS = {
    "placement.forwards": "placed_remote",
    "resilience.retries": "retries",
    "resilience.hedges": "hedges",
    "resilience.hedge_wins": "hedge_wins",
    "resilience.shed": "shed",
    "resilience.deadline_exceeded": "deadline_exceeded",
    "resilience.breaker_transitions": "breaker_transitions",
    "cells.neighbor_fetches": "neighbor_fetches",
    "cells.cloud_fetches": "cloud_fetches",
    "cells.coalesced": "coalesced",
    "cells.failovers": "failovers",
    "cells.handovers": "handovers",
    "cells.compute_busy_s": "compute_busy_s",
    "cells.backhaul_mb": "backhaul_mb",
}

#: Span name -> per-layer self-time metric.
_SELF_TIMES = {
    "scenarios.synth": "scenarios.synth_s",
    "sim.build": "sim.build_s",
    "scenarios.hook": "scenarios.hook_s",
    "sim.replay": "sim.replay_self_s",
    "placement.solve": "placement.solve_s",
    "selection.select": "selection.select_s",
    "semantic.encode": "semantic.encode_s",
    "channel.transmit": "channel.transmit_s",
    "semantic.restore": "semantic.restore_s",
    "core.record": "core.record_s",
    "core.send": "core.session_self_s",
    "semantic.finetune": "semantic.finetune_s",
    "federated.sync": "federated.sync_s",
}


def _replay_name(parent: Optional[str]) -> str:
    # MultiCellSimulator.replay is the backend replay on the serial backend
    # and the validation/fallback replay inside the vectorized one.
    return "vectorized.serial_replay" if parent == "sim.replay" else "sim.replay"


def _count_events(tracer: Tracer, label: str, args: tuple, report) -> None:
    if label == "sim.replay":
        tracer.count("sim.events", report.events_processed)


def _vectorized_result(tracer: Tracer, label: str, args: tuple, report) -> None:
    _count_events(tracer, label, args, report)
    if args[0].fallback_reason is not None:
        tracer.count("vectorized.fallbacks")


def _count_solve(tracer: Tracer, label: str, args: tuple, result) -> None:
    tracer.count("placement.solves")


def _count_finetune(tracer: Tracer, label: str, args: tuple, update) -> None:
    if update is not None:
        tracer.count("semantic.finetunes")


def _count_sync(tracer: Tracer, label: str, args: tuple, record) -> None:
    tracer.count("federated.sync_bytes", record.payload_bytes)


def install_setup_patches(tracer: Tracer) -> None:
    """Patch the set-up steps whose cost ``setup_s`` carries."""
    from repro.selection.classifier import DomainClassifier
    from repro.semantic.knowledge_base import KnowledgeBaseLibrary

    tracer.wrap(KnowledgeBaseLibrary, "pretrain", "semantic.pretrain")
    tracer.wrap(DomainClassifier, "fit", "selection.fit")


def install_layer_patches(tracer: Tracer) -> None:
    """Patch every layer entry point the timed calls reach."""
    from repro.core.pipeline import SemanticTransmissionPipeline
    from repro.core.receiver import ReceiverEdgeServer
    from repro.core.sender import SenderEdgeServer
    from repro.core.session import CommunicationSession
    from repro.federated.sync import DecoderSynchronizer
    from repro.scenarios import runner
    from repro.scenarios.measure import PhaseCollector
    from repro.sim.placement import policies
    from repro.sim.simulator import MultiCellSimulator
    from repro.sim.vectorized import VectorizedSimulator

    tracer.wrap(runner, "synthesize_trace", "scenarios.synth")
    tracer.wrap(runner, "build_simulator", "sim.build")
    tracer.wrap(PhaseCollector, "__call__", "scenarios.hook", aggregate=True)
    tracer.wrap(MultiCellSimulator, "replay", _replay_name, on_result=_count_events)
    tracer.wrap(VectorizedSimulator, "replay", "sim.replay", on_result=_vectorized_result)
    tracer.wrap(policies, "solve_routing", "placement.solve", on_result=_count_solve)
    tracer.wrap(policies, "solve_cache_placement", "placement.solve", on_result=_count_solve)

    tracer.wrap(CommunicationSession, "send", "core.send")
    tracer.wrap(SenderEdgeServer, "encode", "semantic.encode")
    tracer.wrap(SenderEdgeServer, "select_domain", "selection.select")
    tracer.wrap(SemanticTransmissionPipeline, "transmit_features", "channel.transmit")
    tracer.wrap(ReceiverEdgeServer, "restore", "semantic.restore")
    tracer.wrap(SenderEdgeServer, "record_transaction", "core.record")
    tracer.wrap(SenderEdgeServer, "maybe_update_individual", "semantic.finetune", on_result=_count_finetune)
    tracer.wrap(DecoderSynchronizer, "synchronize", "federated.sync", on_result=_count_sync)


def traced_run(workload, seconds: float) -> Tuple[Dict[str, float], List[List[CallResult]], Tracer]:
    """The traced run: every call untraced, then at once traced.

    Returns the per-layer metrics, every call result (for the correctness
    gate) and the tracer holding the spans.
    """
    tracer = Tracer(install_layer_patches)
    if isinstance(workload, SemanticWorkload):
        with tracer.installed(install_setup_patches):
            workload.setup()
    else:
        workload.setup()
    calls = run_calls(workload, seconds, tracer=tracer)
    values = per_layer_metrics(tracer, calls.plain, calls.traced)
    results = [untraced + traced for untraced, traced in zip(calls.plain, calls.traced)]
    return values, results, tracer


def per_layer_metrics(
    tracer: Tracer, plain: Sequence[List[CallResult]], traced: Sequence[List[CallResult]]
) -> Dict[str, float]:
    """Per-layer values for one pass over every call.

    A call that ran traced more than once contributes its mean, so each
    value is what one cycle through the workload's calls costs or counts.
    """
    count = len(traced)

    def per_cycle(by_run: Dict[int, float]) -> float:
        sums = [0.0] * count
        for run, value in by_run.items():
            if run >= 1:
                sums[(run - 1) % count] += value
        return sum(total / len(traced[index]) for index, total in enumerate(sums))

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    self_times = tracer.self_times()
    for span_name, by_run in self_times.items():
        if span_name in _SELF_TIMES:
            values[_SELF_TIMES[span_name]] += per_cycle(by_run)
    for name, by_run in tracer.counts.items():
        values[name] = per_cycle(by_run)
    # Set-up spans are run 0, outside every call.
    values["semantic.pretrain_s"] = self_times["semantic.pretrain"][0]
    values["selection.fit_s"] = self_times["selection.fit"][0]

    values["scenarios.hook_calls"] = per_cycle(tracer.calls("scenarios.hook"))
    values["scenarios.hook_wrap_overhead_s"] = wrapper_cost_s(int(values["scenarios.hook_calls"]))
    values["vectorized.serial_s"] = per_cycle(tracer.inclusive("vectorized.serial_replay"))

    rows = [row for calls in traced for row in calls[0].rows]
    for metric, column in _ROW_COUNTS.items():
        values[metric] = float(sum(float(row.get(column, 0)) for row in rows))
    if rows:
        requests = sum(float(row["requests"]) for row in rows)
        batched = sum(float(row["requests"]) * float(row["mean_batch_size"]) for row in rows)
        values["batching.mean_batch_size"] = batched / requests

    wall = sum(statistics.median(result.seconds for result in calls) for calls in traced)
    untraced = sum(statistics.median(result.seconds for result in calls) for calls in plain)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = wall - untraced
    values["sim.replay_hook_share"] = (values["sim.replay_self_s"] + values["scenarios.hook_s"]) / wall
    values["vectorized.serial_share"] = values["vectorized.serial_s"] / wall
    if values["sim.events"]:
        values["sim.host_us_per_event"] = values["sim.replay_self_s"] / values["sim.events"] * 1e6
    return values
