"""Benchmark worker: runs one workload in a fresh interpreter.

Started by run.py with ``PYTHONPATH=src``.  It imports ``polarlink.cli`` and
loads the workload's config, prints ``ready`` (the parent takes set-up time
from process start to that line), then runs whole rounds over the workload's
op inputs until the next round would end after ``--seconds``, with the
host-speed sampler (hostspeed.py) on.  Its last line of standard output is a
JSON result.

With ``--trace 1`` the first round runs every input once untraced and once
traced, later rounds traced only; per-layer metrics come from the traced ops.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import yaml

import hostspeed
import layers
from spans import TraceError, Tracer, account
from workloads import WORKLOADS, Workload, load_yaml

WORK_DIR = Path(".perfbench_work")  # op run directories, removed at the end
SPANS_DIR = Path(".perfbench_out")  # spans of the last traced run per workload and seed
MIN_ROUNDS = 2  # so that every input runs again and its rerun can be compared
SETUP_PROBES = 3  # probes right after set-up, which scale the set-up time


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


class Runner:
    """Runs ops of one workload and keeps what the checks compare."""

    def __init__(self, cli, w: Workload, base_seed: int, work: Path):
        self.cli = cli
        self.w = w
        self.work = work
        self.inputs = w.inputs(base_seed, load_yaml(Path(w.config_path)))
        self.config_files = []
        for i, op in enumerate(self.inputs):
            path = work / f"config_{i}.yaml"
            path.write_text(yaml.safe_dump(op.config, sort_keys=False))
            self.config_files.append(path)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.counters: dict = {}
        self.traced: list[dict] = []
        self.samples: list[float] = []  # host-speed probe times, in order
        self.timed: list[tuple] = []  # untraced ops: (wall s, first sample, end sample)

    def op(self, i: int, tracer: Tracer | None = None) -> float:
        """Run input ``i`` once; record failures; return the op's host seconds."""
        inp = self.inputs[i]
        self.attempted += 1
        out = self.work / f"op_{self.attempted:05d}"
        argv = self.w.argv(self.config_files[i], inp.seed, out)
        rc, error = None, None
        gc.collect()  # garbage left by the previous op is not this op's cost
        first_sample = len(self.samples)
        try:
            if tracer is not None:
                tracer.op_id = self.attempted
                first_span = len(tracer.spans)
                tracer.install(layers.TARGETS)
            with contextlib.redirect_stdout(io.StringIO()):
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    rc = self.cli.main(argv)
                except (Exception, SystemExit):
                    error = traceback.format_exc(limit=3)
                end, cpu_end = time.perf_counter(), time.process_time()
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is None:
            self.timed.append((end - start, first_sample, len(self.samples)))
        label = f"op {self.attempted} (seed {inp.seed})"
        problems = []
        if error is not None:
            problems.append(f"raised: {error.strip().splitlines()[-1]}")
            print(error, file=sys.stderr)
        elif rc != 0:
            problems.append(f"exit code {rc}")
        else:
            problems += self.w.check(out, inp)
        digest, nbytes = tree_digest(out) if out.exists() else ("", 0)
        first = self.digests.setdefault(i, digest)
        if digest != first:
            problems.append("run directory differs from an earlier run of the same input")
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None and error is None:
            op_spans = tracer.spans[first_span:]
            acc = account(op_spans, cpu_end - cpu_start)
            values = layers.op_layers(op_spans, acc, end - start, nbytes)
            seen = self.counters.setdefault(i, layers.counters(values))
            if layers.counters(values) != seen:
                diff = {k: (seen[k], v) for k, v in layers.counters(values).items() if seen[k] != v}
                problems.append(f"deterministic counters changed between reps: {diff}")
            self.traced.append(values)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return end - start


    def scaled_seconds(self) -> list[float]:
        return [hostspeed.scaled_seconds(w, self.samples, a, b) for w, a, b in self.timed]


def run_rounds(seconds: float, one_round) -> None:
    """Run whole rounds until the next one would end after ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(["op_id", "span_id", "parent_id", "name", "start_s", "end_s"])
        for s in spans:
            out.writerow([s.op_id, s.span_id, s.parent_id or "", s.name, repr(s.start), repr(s.end)])


def environment(polarlink) -> dict:
    import numpy
    import scipy

    return {
        "kernel_backend": polarlink.KERNEL_BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--base-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import polarlink
    from polarlink import cli

    w = WORKLOADS[args.workload]
    cli.load_config(w.config_path)
    print("ready", flush=True)
    setup_probes = [hostspeed.probe_seconds() for _ in range(SETUP_PROBES)]
    setup_slowdown = hostspeed.slowdown(setup_probes)
    if args.setup_only:
        print(json.dumps({"setup_slowdown": setup_slowdown}))
        return 0

    work = WORK_DIR / f"worker_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli, w, args.base_seed, work)
        runner.samples += setup_probes
        panel = range(len(runner.inputs))
        untraced: list[float] = []
        if args.trace:
            tracer = Tracer()

            def one_round(r):
                for i in panel:
                    if r == 0:
                        untraced.append(runner.op(i))
                    runner.op(i, tracer)

            run_rounds(args.seconds, one_round)
            write_spans(SPANS_DIR / f"spans_{w.name}_{args.base_seed}.csv", tracer.spans)
        else:

            def one_round(r):
                for i in panel:
                    untraced.append(runner.op(i))

            with hostspeed.Sampler(runner.samples):
                run_rounds(args.seconds, one_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "op_s": untraced,
        "op_scaled_s": runner.scaled_seconds(),
        "host_slowdown": hostspeed.slowdown(runner.samples),
        "probes": len(runner.samples),
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "seeds": [op.seed for op in runner.inputs],
        "env": environment(polarlink),
    }
    if args.trace and runner.traced:
        metrics, extras = layers.summarize(runner.traced, untraced)
        result["layers"] = metrics
        result["extras"] = extras
        result["input_counters"] = [runner.counters[i] for i in sorted(runner.counters)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as e:
        print(f"trace error: {e}", file=sys.stderr)
        sys.exit(3)
