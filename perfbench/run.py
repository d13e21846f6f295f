"""End-to-end and per-layer benchmark of the polarlink CLI.

Run from the repository root:

    python3 perfbench/run.py --workload longrun_day --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

Each workload runs in its own fresh interpreter (perfbench/worker.py) with
``PYTHONPATH=src``, so the program is the source tree of the checkout.  With
``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (median over
several fresh interpreters, start to first op), ``op_s_p50`` (median host
seconds per op) and ``peak_rss_mb``; failed ops are reported as
``failed_frac``.  Both times are scaled to a host running at a fixed speed,
measured with a probe loop (see hostspeed.py): each op by the probes taken
during it, each set-up sample by the probes right after it.  The report also
prints them unscaled.  With ``--trace 1`` a separate run reports per-layer metrics
from spans recorded around polarlink's public functions.  ``--workload all``
runs every workload untraced and then traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any op fails its output, determinism or counter check, and 2 when the
checkout has no polarlink sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters timed per untraced run, the worker included
# Counters printed for each op input, to compare against published values.
INPUT_COUNTERS = (
    "polmath.PolTransform.init.calls",
    "apc.cost.calls",
    "apc.iterations",
    "apc.sessions.skipped",
    "apc.sessions.converged",
    "apc.sessions.timeout",
    "channel.probe_trace.calls",
    "_kernels.rotation_walk.steps",
)
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"))
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A worker crashed or produced no result."""


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The op itself may use up to nproc threads (fringe --seeds 2); keep BLAS
    # from adding its own pool on top.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to 'ready', result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def run_workload(name: str, base_seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--base-seed", str(base_seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, probe = start_worker(common + ["--seconds", "0", "--setup-only"])
            setups.append((ready, probe["setup_slowdown"]))
    ready, result = start_worker(common + ["--seconds", str(seconds), "--trace", str(trace)])
    if result is None:
        raise BenchError(f"worker for {name} printed no result")
    if trace and "layers" not in result:
        raise BenchError(f"no traced op of {name} succeeded: {result['failures'][:3]}")
    setups.append((ready, result["setup_slowdown"]))
    result["setup_s"] = [r for r, _ in setups]
    result["setup_scaled_s"] = [r / k for r, k in setups]
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    values = {
        "setup_s": statistics.median(result["setup_scaled_s"]),
        "op_s_p50": statistics.median(result["op_scaled_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report(name: str, result: dict, trace: int, base_seed: int, root: Path) -> None:
    env = dict(result["env"], git_sha=git_sha(root), base_seed=base_seed)
    w = WORKLOADS[name]
    print(f"== {name} ({'traced' if trace else 'untraced'}) ==")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"note: kernel_backend={env['kernel_backend']}; timings from different "
        "kernel backends are not comparable"
    )
    print(f"inputs: {w.config_path} seeds {result['seeds']}")
    n_ops = len(result["op_s"])
    if trace:
        extras = result["extras"]
        print(f"traced ops {extras['traced_ops']}, untraced ops {n_ops}")
        for metric, unit in PER_LAYER:
            print(f"  {metric:<45} {result['layers'][metric]:>14.6g} {unit}")
        print("  self time per op (s):")
        for layer, secs in extras["self_s"].items():
            print(f"    {layer:<43} {secs:>14.6f} s")
        print(f"  {'channel.sim_s':<45} {extras['channel.sim_s']:>14.6g} simulated s per op")
        print("  counters per op input:")
        for seed, c in zip(result["seeds"], result["input_counters"]):
            print(f"    seed {seed}: " + ", ".join(f"{k} {c[k]}" for k in INPUT_COUNTERS))
        sessions = extras["apc.session_s"]
        if sessions:
            print(
                f"  {'apc.session_s_p50':<45} {percentile(sessions, 50):>14.6f} s  n={len(sessions)}\n"
                f"  {'apc.session_s_p99':<45} {percentile(sessions, 99):>14.6f} s  n={len(sessions)}"
            )
        else:
            print(f"  {'apc.session_s_p50/p99':<45} {'-':>14}    n=0")
    else:
        m = metrics_of(result, trace)
        samples = {"setup_s": len(result["setup_s"]), "op_s_p50": n_ops, "peak_rss_mb": 1}
        for metric, unit in END_TO_END:
            print(f"  {metric:<12} {m[metric]['value']:>12.6f} {unit:<3} n={samples[metric]}")
        print(
            f"  host slowdown {result['host_slowdown']:.4f} (n={result['probes']} probes); "
            f"unscaled: setup {statistics.median(result['setup_s']):.6f} s, "
            f"op p50 {statistics.median(result['op_s']):.6f} s, "
            f"op min {min(result['op_s']):.6f} s, op max {max(result['op_s']):.6f} s"
        )
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<12} {frac:>12.6f}     n={result['attempted']} ({result['failed']} failed)")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="base seed; op seeds derive from it")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both with 'all')")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    missing = [p for p in ["src/polarlink/cli.py"] + [w.config_path for w in WORKLOADS.values()]
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from a polarlink checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0, 1] if args.workload == "all" else [0]
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            for trace in modes:
                result = run_workload(name, args.seed, args.seconds, trace)
                report(name, result, trace, args.seed, root)
                attempted += result["attempted"]
                failed += result["failed"]
                prefix = "" if len(names) == 1 else f"{name}."
                for key, value in metrics_of(result, trace).items():
                    metrics[prefix + key] = value
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
