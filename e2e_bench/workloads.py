"""The four benchmark workloads, their correctness gate and their metrics.

Each workload drives the program only through the entry points its users
call: :func:`repro.scenarios.runner.run_scenario`, once per row as
``run_catalog`` at ``jobs=1`` (``repro-scenario run``) does, and
:class:`repro.SemanticEdgeSystem` sessions (``examples/metaverse_session.py``).

A workload is a fixed list of *calls*.  A catalog call is one scenario row
under one input seed; a semantic call is one session stream under one input
seed.  The workload seed expands into several input seeds (:data:`INPUT_SEEDS`)
because the modeled outputs of a single seed depend on its particular
deployment, user population and domain mix: averaging several keeps the
modeled metrics of two workload seeds within a few percent of each other.

A workload object has four parts:

``setup()``
    Imports, specs, model training and input generation: everything before
    the first timed call.  ``setup_s`` times exactly this, in fresh
    processes.
``run_call(index)``
    One timed call.  A call does the same work every time it runs, so its
    modeled outputs repeat exactly and only its host time varies.
``check(results)``
    The correctness gate, outside the timed region (with the serial
    reference replays ``catalog_vectorized`` is compared against).
``end_to_end(results)``
    The end-to-end metrics.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

_clock = time.perf_counter

SIM_WORKLOADS = ("scenario_catalog", "policy_catalog", "catalog_vectorized")
WORKLOADS = SIM_WORKLOADS + ("semantic_sessions",)

#: Input seeds per workload seed: seed ``s`` runs inputs ``s*K .. s*K+K-1``.
INPUT_SEEDS = {"scenario_catalog": 4, "policy_catalog": 4, "catalog_vectorized": 4, "semantic_sessions": 8}

#: Arrival-rate scale of each catalog workload.  The scale sets the offered
#: load, not only the length, so it stays at the CLI's default of 1.0;
#: ``policy_catalog`` runs every scenario twice at half the rate.
FULL_SCALE = {"scenario_catalog": 1.0, "policy_catalog": 0.5, "catalog_vectorized": 1.0}
TINY_SCALE = 0.02

#: Deliveries per semantic session stream.
FULL_DELIVERIES = 750
TINY_DELIVERIES = 60

#: Summary columns that must partition a scenario's requests.
TERMINAL_COLUMNS = ("completed", "dropped", "shed", "deadline_exceeded")
LATENCY_COLUMNS = ("mean_ms", "p50_ms", "p95_ms", "p99_ms")


@dataclass
class CallResult:
    """One timed call: its host time, work done and outputs."""

    seconds: float
    units: int
    rows: List[Dict[str, object]] = field(default_factory=list)
    reports: list = field(default_factory=list)
    samples: List[float] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    events: int = 0
    #: How much slower than the reference the host ran around this call
    #: (see :func:`host_probe_s`); host times are divided by it.
    slowness: float = 1.0

    def host_s(self, normalize: bool) -> float:
        return self.seconds / self.slowness if normalize else self.seconds


@dataclass
class Outcome:
    """What the correctness gate found, in failed operations."""

    attempted: int
    failed: int
    problems: List[str]


# ---------------------------------------------------------------------- #
# Correctness checks (pure functions, so tests can feed forged rows)
# ---------------------------------------------------------------------- #
def conservation_problems(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Rows whose terminal outcomes do not add up to their requests."""
    problems = []
    for row in rows:
        terminal = sum(int(row.get(column, 0)) for column in TERMINAL_COLUMNS)
        if terminal != int(row["requests"]):
            problems.append(
                f"{row['scenario']}: completed+dropped+shed+deadline_exceeded={terminal} "
                f"!= requests={row['requests']}"
            )
    return problems


def latency_problems(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Rows with a modeled latency that is not a finite, non-negative number."""
    problems = []
    for row in rows:
        for column in LATENCY_COLUMNS:
            value = float(row[column])
            if not math.isfinite(value) or value < 0:
                problems.append(f"{row['scenario']}: {column}={value}")
    return problems


def equality_problems(
    rows: Sequence[Dict[str, object]], reference: Sequence[Dict[str, object]]
) -> List[str]:
    """Rows that differ from the serial reference row of the same spec."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows against {len(reference)} reference rows"]
    problems = []
    for row, expected in zip(rows, reference):
        if row != expected:
            differing = sorted(
                key for key in set(row) | set(expected) if row.get(key) != expected.get(key)
            )
            problems.append(f"{expected.get('scenario')}: differs from serial in {differing}")
    return problems


def delivery_problems(reports: Sequence[object], sent: int) -> List[str]:
    """Semantic deliveries that are missing or carry an impossible value."""
    problems = []
    if len(reports) != sent:
        problems.append(f"{len(reports)} deliveries for {sent} messages sent")
    for index, report in enumerate(reports):
        if not isinstance(report.restored_text, str):
            problems.append(f"delivery {index}: nothing restored")
        if not 0.0 <= report.mismatch <= 1.0:
            problems.append(f"delivery {index}: mismatch {report.mismatch} outside [0, 1]")
        latency = report.latency.total_s
        if not math.isfinite(latency) or latency < 0:
            problems.append(f"delivery {index}: modeled latency {latency}")
    return problems


# ---------------------------------------------------------------------- #
# Simulator catalogs
# ---------------------------------------------------------------------- #
class CatalogWorkload:
    """A scenario catalog, one ``run_scenario`` call per summary row.

    ``run_catalog`` at ``jobs=1`` (what ``repro-scenario run`` executes)
    calls ``run_scenario`` once per row and adds table assembly, which takes
    under 0.1% of its time.  Calling ``run_scenario`` directly does the same
    work and hands back the simulation report, whose
    ``report.events_processed`` the summary table does not carry, without
    patching anything in the timed run.
    """

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        self.name = name
        count = 1 if tiny else INPUT_SEEDS[name]
        self.input_seeds = [seed * count + offset for offset in range(count)]
        self.scale = TINY_SCALE if tiny else FULL_SCALE[name]
        self.backend = "vectorized" if name == "catalog_vectorized" else "serial"
        self.calls: List[Tuple[int, object]] = []

    def setup(self) -> None:
        from repro.scenarios.catalog import catalog
        from repro.scenarios.runner import run_scenario  # noqa: F401  (import cost is set-up)

        specs = list(catalog().values())
        if self.name == "policy_catalog":
            from repro.experiments.e11_resilience import MODES
            from repro.sim.placement import PlacementSpec

            placement = PlacementSpec(policy="max-flow")
            rows = [
                variant
                for spec in specs
                for variant in (spec.with_placement(placement), spec.with_resilience(MODES["full"]))
            ]
        else:
            if self.backend == "vectorized":
                import repro.sim.vectorized  # noqa: F401  (import cost is set-up)
            rows = specs
        self.calls = [(seed, spec) for seed in self.input_seeds for spec in rows]

    def before_call(self) -> None:
        """Make the next call pay what a fresh CLI process pays."""
        if self.backend == "vectorized":
            from repro.sim.vectorized import VectorizedSimulator

            # The class-level verdict cache would let a repeated signature
            # skip its validation replay; a CLI invocation never has a warm one.
            VectorizedSimulator._validated.clear()

    def run_call(self, index: int) -> CallResult:
        from repro.scenarios.runner import run_scenario

        seed, spec = self.calls[index]
        start = _clock()
        result = run_scenario(spec, seed=seed, scale=self.scale, backend=self.backend)
        seconds = _clock() - start
        return CallResult(
            seconds=seconds,
            units=int(result.summary["requests"]),
            rows=[result.summary],
            events=result.report.events_processed,
        )

    def after_call(self, index: int, result: CallResult) -> None:
        pass

    def reference_rows(self) -> List[Dict[str, object]]:
        """What each call must return: the serial backend's row.

        For the serial workloads that is the call's own first result.  For
        ``catalog_vectorized`` it is a serial replay of the same spec, seed
        and scale, run here outside the timed region, so the check holds
        whether or not the backend validates itself.
        """
        from repro.scenarios.runner import run_scenario

        return [
            run_scenario(spec, seed=seed, scale=self.scale, backend="serial").summary
            for seed, spec in self.calls
        ]

    def check(self, results: Sequence[List[CallResult]]) -> Outcome:
        if self.backend == "serial":
            reference = [runs[0].rows[0] for runs in results]
            problems, failed, attempted = [], 0, 0
        else:
            reference = self.reference_rows()
            problems = conservation_problems(reference)
            failed, attempted = len(problems), len(reference)
        for expected, runs in zip(reference, results):
            for result in runs:
                attempted += 1
                found = (
                    conservation_problems(result.rows)
                    + latency_problems(result.rows)
                    + equality_problems(result.rows, [expected])
                )
                failed += bool(found)
                problems.extend(found)
        return Outcome(attempted=attempted, failed=failed, problems=problems)

    def end_to_end(self, results: Sequence[List[CallResult]], normalize: bool = True) -> Dict[str, float]:
        rows = [runs[0].rows[0] for runs in results]
        requests = np.array([float(row["requests"]) for row in rows])
        total = float(requests.sum())

        def weighted(column: str) -> float:
            return float(np.dot(requests, [float(row[column]) for row in rows]) / total)

        call_s = np.array([statistics.median(result.host_s(normalize) for result in runs) for runs in results])
        # One pass per input seed: the host time of one ``repro-scenario run --all``.
        pass_s = call_s.reshape(len(self.input_seeds), -1).sum(axis=1)
        events = sum(runs[0].events for runs in results)
        completed = sum(int(row["completed"]) for row in rows)
        return {
            "requests_per_s": total / float(call_s.sum()),
            "events_per_s": events / float(call_s.sum()),
            "sim_latency_ms.p50": weighted("p50_ms"),
            "sim_latency_ms.p99": weighted("p99_ms"),
            "hit_ratio": weighted("hit_ratio"),
            "completed_ratio": completed / total,
            "delivery_ms.p50": float(np.percentile(pass_s, 50)) * 1000.0,
            "delivery_ms.p90": float(np.percentile(pass_s, 90)) * 1000.0,
            "mismatch.mean": 1.0 - weighted("hit_ratio"),
            "modeled_delivery_ms.mean": weighted("mean_ms"),
        }


# ---------------------------------------------------------------------- #
# Semantic sessions
# ---------------------------------------------------------------------- #
class SemanticWorkload:
    """The Metaverse session of ``examples/metaverse_session.py``, closed loop.

    One client drives one session for 12 users and sends the next message
    only when ``send_text`` has returned.  The knowledge bases and the
    selection classifier are trained once at set-up with the example's
    seed 0 (they are the program); the input seeds draw the messages and the
    channel noise (they are the input).  Each call builds a fresh system
    over the same trained models and streams one input seed's messages, so a
    call does the same fine-tunes and syncs every time it runs.
    """

    name = "semantic_sessions"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        count = 1 if tiny else INPUT_SEEDS[self.name]
        self.input_seeds = [seed * count + offset for offset in range(count)]
        self.deliveries = TINY_DELIVERIES if tiny else FULL_DELIVERIES
        self.calls: List[List[Tuple[str, str]]] = []
        self.tokens: List[int] = []
        self.failed = 0
        self.problems: List[str] = []

    def setup(self) -> None:
        from repro import CodecConfig, SemanticEdgeSystem, SystemConfig  # noqa: F401
        from repro.selection import ClassifierSelectionPolicy, DomainClassifier, build_featurizer
        from repro.semantic import KnowledgeBaseLibrary
        from repro.text.tokenizer import simple_tokenize
        from repro.workloads import MetaverseWorkload, generate_all_corpora

        texts, labels = [], []
        for domain, corpus in generate_all_corpora(150, seed=0).items():
            texts.extend(corpus.sentences)
            labels.extend([domain] * len(corpus.sentences))
        classifier = DomainClassifier(build_featurizer(texts), sorted(set(labels)), seed=0)
        classifier.fit(texts, labels, epochs=25, seed=0)
        self.policy = ClassifierSelectionPolicy(classifier)
        self.config = SystemConfig(
            codec=CodecConfig(
                architecture="mlp", embedding_dim=24, feature_dim=6, hidden_dim=48, max_length=16, seed=0
            ),
            channel_snr_db=10.0,
            quantization_bits=5,
            individual_threshold=3,
            fine_tune_epochs=1,
        )
        self.library = KnowledgeBaseLibrary.pretrain(
            config=self.config.codec, sentences_per_domain=150, train_epochs=18, seed=0
        )
        for seed in self.input_seeds:
            workload = MetaverseWorkload(num_users=12, arrival_rate=20.0, latency_budget_ms=80.0, seed=seed)
            events = workload.generate(self.deliveries).events
            self.calls.append([(event.message.user_id, event.message.text) for event in events])
            self.tokens.append(sum(len(simple_tokenize(event.message.text)) for event in events))

    def before_call(self) -> None:
        pass

    def run_call(self, index: int) -> CallResult:
        from repro import SemanticEdgeSystem

        system = SemanticEdgeSystem(self.library, config=self.config, selection_policy=self.policy)
        session = system.open_session(
            "metaverse-uplink", "metaverse-downlink", channel_seed=self.input_seeds[index] + 1
        )
        send = session.send_text
        samples: List[float] = []
        start = _clock()
        for user, text in self.calls[index]:
            sent = _clock()
            send(user, "peer", text)
            samples.append(_clock() - sent)
        seconds = _clock() - start
        return CallResult(
            seconds=seconds,
            units=len(session.reports),
            reports=session.reports,
            samples=samples,
            summary=system.summary(),
        )

    def after_call(self, index: int, result: CallResult) -> None:
        """Check a call's deliveries, then keep only the numbers.

        Holding every call's reports would make peak memory grow with the
        number of calls run, that is with host speed.
        """
        problems = delivery_problems(result.reports, len(self.calls[index]))
        self.failed += len({problem.split(":", 1)[0] for problem in problems})
        self.problems.extend(problems)
        result.summary["modeled_ms"] = [report.latency.total_s * 1000.0 for report in result.reports]
        result.reports = []

    def check(self, results: Sequence[List[CallResult]]) -> Outcome:
        attempted = sum(len(self.calls[index]) * len(runs) for index, runs in enumerate(results))
        return Outcome(attempted=attempted, failed=min(self.failed, attempted), problems=self.problems)

    def end_to_end(self, results: Sequence[List[CallResult]], normalize: bool = True) -> Dict[str, float]:
        firsts = [runs[0] for runs in results]
        delivered = sum(first.units for first in firsts)
        call_s = np.array([statistics.median(result.host_s(normalize) for result in runs) for runs in results])

        def delivery_ms(q: float) -> float:
            # Median over streams of each stream's percentile: a burst of
            # host noise during one stream moves one value, not the pool.
            per_call = [
                statistics.median(
                    float(np.percentile(result.samples, q)) / (result.slowness if normalize else 1.0)
                    for result in runs
                )
                for runs in results
            ]
            return statistics.median(per_call) * 1000.0

        modeled_ms = np.concatenate([first.summary["modeled_ms"] for first in firsts])
        mismatch = sum(first.summary["mean_mismatch"] * first.units for first in firsts) / delivered
        return {
            "requests_per_s": delivered / float(call_s.sum()),
            "events_per_s": sum(self.tokens) / float(call_s.sum()),
            "sim_latency_ms.p50": float(np.percentile(modeled_ms, 50)),
            "sim_latency_ms.p99": float(np.percentile(modeled_ms, 99)),
            "hit_ratio": float(np.mean([first.summary["sender_cache_hit_ratio"] for first in firsts])),
            "completed_ratio": delivered / sum(len(messages) for messages in self.calls),
            "delivery_ms.p50": delivery_ms(50),
            "delivery_ms.p90": delivery_ms(90),
            "mismatch.mean": mismatch,
            "modeled_delivery_ms.mean": float(modeled_ms.mean()),
        }


def make_workload(name: str, seed: int, tiny: bool = False):
    """The workload object for ``name``."""
    if name == "semantic_sessions":
        return SemanticWorkload(seed, tiny=tiny)
    if name in SIM_WORKLOADS:
        return CatalogWorkload(name, seed, tiny=tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


#: Iterations of the host probe loop, and the probe's time on the 2-core
#: host this benchmark was defined on when that host ran fastest.
HOST_PROBE_ITERATIONS = 200_000
REFERENCE_PROBE_S = 0.0112


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now."""
    start = _clock()
    total = 0
    for value in range(HOST_PROBE_ITERATIONS):
        total += value * value
    return _clock() - start


@dataclass
class Calls:
    """Everything :func:`run_calls` measured, one list per call."""

    plain: List[List[CallResult]]
    traced: List[List[CallResult]]


def run_calls(workload, seconds: float, tracer=None) -> Calls:
    """Run the workload's calls in a cycle for about ``seconds``.

    Every call runs at least once; after the first full cycle, the next call
    runs only if its first time still fits in ``seconds``.  Each call starts
    from a collected heap, and nothing in the program is warmed before the
    first one.  The host probe runs before the first call and after every
    untraced one, outside the timed regions; an untraced call's slowness is
    the mean of the probes on either side of it.  With a ``tracer`` every
    call runs twice in a row, untraced then traced, so the tracing overhead
    is measured under the same host conditions; traced calls are numbered
    from 1 in the spans.
    """
    count = len(workload.calls)
    calls = Calls(plain=[[] for _ in range(count)], traced=[[] for _ in range(count)])
    start = _clock()
    probe = host_probe_s()
    done = 0
    while True:
        index = done % count
        if done >= count:
            expected = calls.plain[index][0].seconds + (calls.traced[index][0].seconds if tracer else 0.0)
            if _clock() - start + expected > seconds:
                return calls
        result = _one_call(workload, index)
        after = host_probe_s()
        result.slowness = (probe + after) / 2.0 / REFERENCE_PROBE_S
        probe = after
        calls.plain[index].append(result)
        if tracer is not None:
            tracer.run = done + 1
            with tracer.installed(), tracer.span("call"):
                calls.traced[index].append(_one_call(workload, index))
        done += 1


def _one_call(workload, index: int) -> CallResult:
    workload.before_call()
    gc.collect()
    result = workload.run_call(index)
    workload.after_call(index, result)
    return result
