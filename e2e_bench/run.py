"""End-to-end benchmark of the semantic edge system and its caching simulator.

Run from the repository root::

    python3 e2e_bench/run.py --workload scenario_catalog --seed 1 --seconds 15 --trace 0

Workloads: ``scenario_catalog``, ``policy_catalog``, ``catalog_vectorized``
and ``semantic_sessions`` (see ``e2e_bench/README.md``).  With ``--trace 0``
the command measures the end-to-end metrics with nothing in the program
patched; with ``--trace 1`` it makes a separate traced run that splits host
time by layer.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is non-zero when the correctness gate finds a wrong output.
"""

from __future__ import annotations

import os

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # Pinned before numpy loads: multi-threaded BLAS on a small shared host
    # spreads the semantic per-delivery times far more than one thread does.
    for _variable in BLAS_VARIABLES:
        os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e_bench.layers import PER_LAYER_UNITS, traced_run  # noqa: E402
from e2e_bench.workloads import REFERENCE_PROBE_S, WORKLOADS, host_probe_s, make_workload, run_calls  # noqa: E402

#: Fresh processes whose set-up times give the ``setup_s`` median.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS: Dict[str, str] = {
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_latency_ms.p50": "ms",
    "sim_latency_ms.p99": "ms",
    "hit_ratio": "ratio",
    "completed_ratio": "ratio",
    "events_per_s": "1/s",
    "delivery_ms.p50": "ms",
    "delivery_ms.p90": "ms",
    "mismatch.mean": "ratio",
    "modeled_delivery_ms.mean": "ms",
}

OUT_DIR = HERE / "out"


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds from starting a fresh process to its workload being ready.

    The child imports the program, builds its specs or trains its models,
    prints ``ready`` and exits; the parent's clock covers interpreter start,
    imports and set-up, which is what a user pays before the first call.
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    if tiny:
        command.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=SETUP_PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code}, said {line.strip()!r})")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_probes: int = SETUP_PROBES,
    out_dir: Optional[Path] = OUT_DIR,
) -> dict:
    """One benchmark run; returns the result object the command prints last."""
    load_before, probe_before = os.getloadavg(), host_probe_s()
    workload = make_workload(workload_name, seed, tiny=tiny)
    if trace:
        values, results, spans = traced_run(workload, seconds)
        units = PER_LAYER_UNITS
        if out_dir is not None:
            spans.write(out_dir / f"{workload_name}-seed{seed}.spans.jsonl.gz")
    else:
        setup_samples, setup_slowness = [], []
        probe = host_probe_s()
        for _ in range(setup_probes):
            setup_samples.append(measure_setup(workload_name, seed, tiny))
            after = host_probe_s()
            setup_slowness.append((probe + after) / 2.0 / REFERENCE_PROBE_S)
            probe = after
        workload.setup()
        results = run_calls(workload, seconds).plain
    outcome = workload.check(results)
    record = {}
    if not trace:
        values = workload.end_to_end(results)
        values["setup_s"] = statistics.median(s / f for s, f in zip(setup_samples, setup_slowness))
        values["peak_rss_mb"] = peak_rss_mb()
        raw = workload.end_to_end(results, normalize=False)
        raw["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END_UNITS
        record.update(
            host_slowness=statistics.median(result.slowness for runs in results for result in runs),
            setup_host_slowness=statistics.median(setup_slowness),
            raw=raw,
        )
    record.update({
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "calls": len(results),
        "runs_per_call": [min(map(len, results)), max(map(len, results))],
        "blas_threads": {variable: os.environ.get(variable) for variable in BLAS_VARIABLES},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "host_probe_s": [probe_before, host_probe_s()],
        "problems": outcome.problems[:20],
    })
    print("# run " + json.dumps(record))
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the measured region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        make_workload(args.workload, args.seed, tiny=args.tiny).setup()
        print("ready", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
