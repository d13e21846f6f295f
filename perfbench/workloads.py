"""The three benchmark workloads: op inputs derived from a base seed, and the
checks every op's run directory must pass.

An op is one ``polarlink.cli.main`` invocation: one scenario run with its run
directory written.  A run cycles over a panel of op inputs; every input runs
at least twice, so repeated runs of the same input can be compared byte for
byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

CALIBRATED_DAY_RATE = 0.012714
# Seeds 0-10 of configs/calibrate.yaml gave day rates up to 12 % from the
# calibrated value: the 200-seed median crossing time has about 5 % sampling
# noise and the bisection stops on a discrete grid of rates.  0.25 keeps the
# check about four standard errors wide, so it flags a wrong rate, not noise.
DAY_RATE_REL_TOL = 0.25
UPTIME_TARGET = 0.928
UPTIME_TOL = 0.02
TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class OpInput:
    seed: int
    config: dict  # the generated config the program reads


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    config_path: str  # relative to the checkout root
    pinned_seed: int
    panel: int  # distinct op inputs per run
    program_seeds: int  # value passed to --seeds

    def argv(self, config_file: Path, seed: int, out: Path) -> list[str]:
        argv = [self.scenario, "--config", str(config_file), "--seed", str(seed), "--out", str(out)]
        if self.program_seeds > 1:
            argv += ["--seeds", str(self.program_seeds)]
        return argv

    def inputs(self, base_seed: int, base_config: dict) -> list[OpInput]:
        """The op inputs of one run: the same base seed gives the same list."""
        if base_seed < 0:
            raise ValueError("base seed must be >= 0")
        if self.name == "calibrate":
            return [_calibrate_input(self, base_seed, base_config)]
        first = self.panel * base_seed
        return [
            OpInput(self.pinned_seed + self.program_seeds * (first + j), base_config)
            for j in range(self.panel)
        ]

    def check(self, out: Path, op: OpInput) -> list[str]:
        """Problems found in one op's run directory (empty when it is correct)."""
        return _CHECKS[self.name](out, op)


def _calibrate_input(w: Workload, base_seed: int, base_config: dict) -> OpInput:
    # The bisection takes 3 to 12 steps (3 s to 15 s per op) depending on the
    # RNG seed, so a derived RNG seed would make op time measure the seed, not
    # the code.  The RNG seed stays at the config's; the base seed varies
    # night_ratio, which changes the written schedule but not the work.
    cfg = json.loads(json.dumps(base_config))
    cfg.setdefault("calibrate", {})["night_ratio"] = 500.0 + base_seed
    return OpInput(w.pinned_seed, cfg)


# Each layer has a workload that exercises it and one that bypasses it:
# longrun_day is scheduler- and session-bound (many short walks), fringe_burst
# is APC-descent-bound with the --seeds thread fan-out and no run_link, and
# calibrate is kernel-bound with no APC, scheduler, source or analysis.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "longrun_day",
            "longrun",
            "configs/longrun_stabilized.yaml",
            pinned_seed=11,
            panel=4,
            program_seeds=1,
        ),
        Workload(
            "fringe_burst",
            "fringe",
            "configs/fringe_burst.yaml",
            pinned_seed=7,
            panel=16,
            program_seeds=2,
        ),
        Workload(
            "calibrate",
            "calibrate",
            "configs/calibrate.yaml",
            pinned_seed=3,
            panel=1,
            program_seeds=1,
        ),
    )
}


def load_yaml(path: Path) -> dict:
    with open(path) as f:
        return yaml.safe_load(f)


def _read_json(path: Path, problems: list) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        problems.append(f"{path.name}: {e}")
        return {}


def _check_longrun(out: Path, op: OpInput) -> list[str]:
    problems: list[str] = []
    for name in ("timeline.csv", "sessions.csv", "series.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    s = _read_json(out / "summary.json", problems)
    if not s:
        return problems
    if not abs(s.get("uptime_fraction", -1.0) - UPTIME_TARGET) <= UPTIME_TOL:
        problems.append(f"uptime_fraction {s.get('uptime_fraction')} not {UPTIME_TARGET}±{UPTIME_TOL}")
    if not s.get("mean_S", 0.0) > 2.0:
        problems.append(f"mean_S {s.get('mean_S')} <= 2")
    if not s.get("corrected_mean_S", 0.0) > 2.0:
        problems.append(f"corrected_mean_S {s.get('corrected_mean_S')} <= 2")
    timed_out = s.get("fraction_timeout", 0.0) > 0.0
    if s.get("n_excluded_groups", 0) > 0 and not timed_out:
        problems.append("post-timeout groups excluded but no session timed out")
    # The rest of criterion 7 holds at the config's seed.  Elsewhere the burst
    # can miss every session (seed 92) and the excluded groups can sit above
    # the mean by chance (seed 30: 3e-4).
    if op.seed == WORKLOADS["longrun_day"].pinned_seed:
        if not timed_out:
            problems.append("no session timed out")
        if not s.get("corrected_mean_S", 0.0) >= s.get("mean_S", math.inf):
            problems.append(f"corrected_mean_S {s.get('corrected_mean_S')} < mean_S {s.get('mean_S')}")
    return problems


def _check_fringe(out: Path, op: OpInput) -> list[str]:
    problems: list[str] = []
    agg = _read_json(out / "aggregate.json", problems)
    seeds = agg.get("seeds", [])
    if len(seeds) != 2:
        problems.append(f"aggregate.json lists {len(seeds)} seeds, expected 2")
    for seed in seeds:
        run = out / f"seed_{seed:04d}"
        names = ["chsh.json"]
        # The burst drives most seeds, not all, into a timeout; the corrected
        # estimate must exist exactly when a session timed out.
        try:
            timed_out = ",timeout," in (run / "sessions.csv").read_text()
        except OSError as e:
            problems.append(f"{run.name}/sessions.csv: {e}")
            continue
        if timed_out:
            names.append("chsh_corrected.json")
        elif (run / "chsh_corrected.json").exists():
            problems.append(f"{run.name}: chsh_corrected.json written without a timeout")
        for name in names:
            payload = _read_json(run / name, problems)
            s_value = payload.get("S")
            if s_value is not None and not 2.0 < s_value < TSIRELSON:
                problems.append(f"{run.name}/{name}: S = {s_value} outside (2, 2*sqrt(2))")
    return problems


def _check_calibrate(out: Path, op: OpInput) -> list[str]:
    problems: list[str] = []
    p = _read_json(out / "schedule.json", problems)
    if not p:
        return problems
    block = op.config.get("calibrate", {})
    target = float(block.get("target_time_s", 20.0))
    day_rate = p.get("day_rate") or 0.0
    if not abs(day_rate / CALIBRATED_DAY_RATE - 1.0) <= DAY_RATE_REL_TOL:
        problems.append(f"day_rate {day_rate} not within {DAY_RATE_REL_TOL:.0%} of {CALIBRATED_DAY_RATE}")
    if not abs(p.get("achieved_median_s", 0.0) / target - 1.0) <= 0.05:
        problems.append(f"achieved_median_s {p.get('achieved_median_s')} not within 5% of {target}")
    ratio = float(block.get("night_ratio", 500.0))
    if not math.isclose(p.get("night_rate", 0.0), day_rate / ratio, rel_tol=1e-12):
        problems.append(f"night_rate {p.get('night_rate')} != day_rate / {ratio}")
    return problems


_CHECKS = {
    "longrun_day": _check_longrun,
    "fringe_burst": _check_fringe,
    "calibrate": _check_calibrate,
}
