"""Calibrate the day drift rate over a run of seeds: convergence and spread.

Runs ``calibrate.bisect_day_rate`` with configs/calibrate.yaml's settings at
seeds 0 to ``--count`` - 1 (default 0-199) and prints how many converge, the
mean, sd and standard error of the day rate, the number of distinct rates,
and the min, median and max number of median walks (calls of
``median_crossing_time``) a calibration takes, of the 25-step chunks its
walks take (walked), and of the chunks whose normals it draws (drawn: a walk
over a kept ``SeedSet`` chunk reads it instead).  It exits 1 if any seed fails
to converge, or if the mean rate is more than 2 standard errors from
0.01321, the mean over seeds 0-199 of the bisection that walked a fresh seed
set at every step.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/calibrate_sweep.py [--count K]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from polarlink import calibrate, cli

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_MEAN = 0.01321


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()
    if args.count < 2:
        parser.error("--count must be at least 2, for a standard error")
    settings = cli.load_config(ROOT / "configs" / "calibrate.yaml")["calibrate"]

    walks = walked = drawn = 0
    walk, chunks = calibrate.median_crossing_time, calibrate._probe_s1_chunks

    def counted(*a, seed_set=None, **k):
        nonlocal walks, drawn
        walks += 1
        kept = len(seed_set.chunks) if seed_set is not None else 0
        before = walked
        median = walk(*a, seed_set=seed_set, **k)
        drawn += len(seed_set.chunks) - kept if seed_set is not None else walked - before
        return median

    def counted_chunks(*a):
        nonlocal walked
        for chunk in chunks(*a):
            walked += 1
            yield chunk

    calibrate.median_crossing_time = counted
    calibrate._probe_s1_chunks = counted_chunks
    rates, counts, failed = [], [], []
    start = time.perf_counter()
    for seed in range(args.count):
        walks = walked = drawn = 0
        try:
            rate, _ = calibrate.bisect_day_rate(settings, seed)
        except calibrate.CalibrationError as e:
            failed.append(f"seed {seed}: {e}")
            continue
        rates.append(rate)
        counts.append((walks, walked, drawn))
    elapsed = time.perf_counter() - start

    print(f"seeds 0-{args.count - 1}: {len(rates)}/{args.count} converge in {elapsed:.1f} s")
    for line in failed:
        print(line)
    if len(rates) < 2:
        sys.exit("too few seeds converge for a mean and its standard error")
    mean, sd = statistics.fmean(rates), statistics.stdev(rates)
    se = sd / len(rates) ** 0.5
    print(f"day rate: mean {mean:.5f}, sd {sd:.5f}, SE {se:.5f}; {len(set(rates))} distinct")
    for name, column in zip(("median walks", "chunks walked", "chunks drawn"), zip(*counts)):
        print(
            f"{name} per calibration: min {min(column)}, "
            f"median {statistics.median(column):g}, max {max(column)}"
        )
    if failed:
        sys.exit(f"{len(failed)} seeds did not converge")
    if abs(mean - REFERENCE_MEAN) > 2 * se:
        sys.exit(f"mean day rate {mean:.5f} is over 2 SE from {REFERENCE_MEAN}")


if __name__ == "__main__":
    main()
