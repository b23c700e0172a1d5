"""Served-query benchmark for the cost-intelligent warehouse.

Drives the public serving API (``Session.submit`` / ``submit_many``:
admit -> bind -> plan -> simulate -> finalize) as one closed-loop client
on an SF-100 statistics-only TPC-H catalog, then checks the served
results against a cold oracle (see ``gate.py``).

Usage, from the repository root::

    python3 perfbench/run.py --workload recurring --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json``):

- ``recurring``: three tenants re-running the ten TPC-H report templates
  with fresh literals, every fourth arrival re-issued verbatim, one
  ``Session.submit`` at a time.  Working set: 20 skeleton keys against
  256-entry caches.
- ``adhoc``: one-off star joins from ``AdhocQueryGenerator``; ~1200
  skeleton keys per 2000 arrivals, so every cache level misses and evicts.
- ``ops_batch``: the ``recurring`` traffic in ``submit_many`` batches of
  25 on the default thread pool, with the write side on: write-ahead
  journal with checkpoints, cost-snapshot collection, auto-applying
  tuning, and tenant budgets under which ``tenant-c`` escalates to
  THROTTLE, DEFER and DENY.

Set-up (``setup_s``) is import, catalog and warehouse construction and
the 256-arrival warm-up, timed in this process and in two fresh child
processes; the median is reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced window (``tracing.py``) plus the tracing
overhead, measured against an untraced window in a child process, and
writes the spans to ``.perfbench_out/``.  Quality metrics, counts and
per-layer figures cover the first 2000 requests of the window, so they
repeat per seed (counts on ``ops_batch`` vary slightly, as its threads
race on the shared caches); throughput, latency and CPU cover the whole
window.  A ``submit`` latency is the call's wall time; a batched
request's is the sum of its handle's stage timings.  Throughput, latency, CPU and set-up times are scaled to a
reference host speed sampled between slices of the run (``hostspeed.py``);
the unscaled figures are printed with the window and kept in the report
under ``.perfbench_out/``.  The last stdout line is one JSON object.

Held-out seed: 7919 is reserved for re-checking claimed gains on inputs
a change was not tuned against; do not use it while developing one.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is measured this many extra times, each in a fresh process.
SETUP_PROBES = 2
#: Generated arrivals per window second; the client wraps around the
#: stream if a program serves faster than this.
ARRIVALS_PER_SECOND = 1000
CHILD_TIMEOUT_S = 150
#: Linux ``personality`` flag that turns off address-space randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recurring", "adhoc", "ops_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: child-process roles.
    parser.add_argument("--role", choices=("main", "setup", "untraced"),
                        default="main", help=argparse.SUPPRESS)
    return parser


def _child(args, role: str) -> dict:
    """Run this script in a fresh process in ``role``; its last stdout
    line is a JSON object."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--role", role],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{role} child process failed ({completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _pin_hashing(seed: int) -> None:
    """Re-execute this script with a string-hash seed derived from
    ``seed`` and without address-space randomization, unless both hold.

    Cache keys pick the plan caches' lock stripes by ``hash()``, and so
    which entries get evicted.  String hashes are randomized per process
    and, before Python 3.12, ``hash(None)`` (inside every constraint key)
    is its address; pinning both makes cache behaviour, and with it every
    count, repeat for a seed.
    """
    hash_seed = str(seed % 2**32)
    randomization_disabled_now = False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1 and not current & ADDR_NO_RANDOMIZE:
            libc.personality(current | ADDR_NO_RANDOMIZE)
            randomization_disabled_now = bool(
                libc.personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE
            )
    except (OSError, AttributeError):
        pass
    if os.environ.get("PYTHONHASHSEED") == hash_seed and not randomization_disabled_now:
        return
    os.execve(
        sys.executable,
        [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
        {**os.environ, "PYTHONHASHSEED": hash_seed},
    )


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(window, setup_s: float) -> dict[str, tuple[float, str]]:
    rows = window.prefix_rows
    sla = [row for row in rows if row.is_sla]
    budget = [row for row in rows if not row.is_sla]
    return {
        "served_qps": (window.served / window.scaled_elapsed_s, "1/s"),
        "latency_p50_ms": (_percentile(window.latencies, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(window.latencies, 0.99) * 1e3, "ms"),
        "cpu_ms_per_query": (window.scaled_cpu_s * 1e3 / window.served, "ms"),
        "served_frac": (sum(row.served for row in rows) / len(rows), "frac"),
        "dollars_per_query": (
            statistics.fmean(row.dollars for row in rows if row.served), "USD"
        ),
        "sla_met_frac": (sum(row.met for row in sla) / len(sla), "frac"),
        "budget_met_frac": (sum(row.met for row in budget) / len(budget), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (window.peak_rss_mb, "MB"),
    }


def main() -> int:
    args = _arg_parser().parse_args()
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    _pin_hashing(args.seed)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started_s = time.perf_counter() - PROCESS_START

    if args.role == "main" and args.trace == 0:
        probes = [_child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    clock = hostspeed.ScaledClock()
    import_start = time.perf_counter()
    import gate
    import workloads
    from repro.core.service import ServingScheduler

    clock.add(started_s + time.perf_counter() - import_start)
    count = max(workloads.PREFIX, int(args.seconds * ARRIVALS_PER_SECOND))
    inputs = workloads.make_inputs(
        args.workload, args.seed,
        workloads.PREFIX if args.role == "setup" else count,
    )
    warehouse = workloads.set_up(args.workload, inputs, clock)
    setup_s = clock.scaled_s
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    samples = gate.sample_indices(args.seed, args.workload)
    tracer = None
    if args.role == "main" and args.trace == 1:
        from tracing import Tracer

        untraced = _child(args, "untraced")
        tracer = Tracer()
        tracer.install()
    try:
        window = workloads.serve(
            warehouse, inputs, args.seconds, samples,
            on_request=tracer.set_request if tracer is not None else None,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    served_qps = window.served / window.scaled_elapsed_s
    if args.role == "untraced":
        print(json.dumps({"served_qps": served_qps}))
        return 0

    errors, checked = gate.check(args.workload, warehouse, inputs, window)
    if sum(v for k, v in checked.items() if k.endswith("_plans")) == 0:
        errors.append("no served plan was checked against an oracle")

    if tracer is None:
        metrics = end_to_end(window, statistics.median([setup_s, *probes]))
        setups = [setup_s, *probes]
    else:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, window, workloads.PREFIX)
        metrics["trace.overhead_qps"] = (served_qps - untraced["served_qps"], "1/s")
        setups = [setup_s]

    caches = warehouse.describe_caches()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "scheduler_workers": ServingScheduler(warehouse.session()).max_workers,
        },
        "inputs": {
            "seed": args.seed,
            "why": _why(args.workload),
            "cache_capacity": caches["plan_cache"]["capacity"],
            "working_set_skeleton_keys": inputs.skeleton_keys,
            "working_set_exact_keys": inputs.exact_keys,
            "prefix_requests": workloads.PREFIX,
            "batch_size": inputs.batch_size,
        },
        "window": {
            "elapsed_s": window.elapsed_s,
            "attempted": window.attempted,
            "served": window.served,
            "denied": window.denied,
            "failed": window.failed,
            "latency_samples": len(window.latencies),
            "latency_samples_beyond_p99": len(window.latencies)
            - math.ceil(0.99 * len(window.latencies)),
            "unscaled": {
                "served_qps": window.served / window.elapsed_s,
                "latency_p50_ms": _percentile(window.raw_latencies, 0.50) * 1e3,
                "latency_p99_ms": _percentile(window.raw_latencies, 0.99) * 1e3,
                "cpu_ms_per_query": window.cpu_s * 1e3 / window.served,
            },
        },
        "setup_runs_s": setups,
        "gate": {"checked": checked, "errors": errors},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["trace_served_qps"] = {
            "traced": served_qps, "untraced": untraced["served_qps"]
        }
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str)
    )

    for section in ("host", "inputs", "window"):
        print(f"{section}: " + json.dumps(report[section], default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    for error in errors:
        print(f"GATE MISMATCH: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": report["metrics"],
    }))
    return 1 if errors else 0


def _why(workload: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next(
        (w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None
    )


if __name__ == "__main__":
    sys.exit(main())
