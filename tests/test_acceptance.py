"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test evaluates its criterion, prints a single ``CRITERION n: PASS/FAIL``
line and then asserts, so a full ``pytest`` run doubles as the checklist.
"""

import numpy as np
import pytest

from polarlink import _kernels, analysis, calibrate, cli
from polarlink.apc import (
    ApcConfig,
    Controller,
    run_session,
)
from polarlink.channel import DriftSchedule, FiberChannel
from polarlink.polmath import (
    AnalyzerSetting,
    PolTransform,
    TwoQubitPolState,
    coincidence_prob,
    coincidence_prob_stokes,
)
from polarlink.source import DetectionChain, PairSource, expected_coincidence_rate
from tests.oracles import haar_quat, matrix


def verdict(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert ok, line


def fake_fit(v, sigma):
    return analysis.FitResult(1.0, v, 0.0, v, sigma, 0.0)


class TestAcceptance:
    def test_01_estimator_reference_values(self):
        plain = analysis.chsh_from_visibilities(
            [fake_fit(0.87, 0.02), fake_fit(0.78, 0.03), fake_fit(0.76, 0.03), fake_fit(0.79, 0.03)]
        )
        corrected = analysis.chsh_from_visibilities(
            [fake_fit(0.87, 0.02), fake_fit(0.78, 0.03), fake_fit(0.82, 0.03), fake_fit(0.79, 0.03)]
        )
        # 2 sqrt(2) * 0.815 = 2.3052, i.e. the reference 2.30 with a half-cent
        # of rounding slack on the corrected value
        ok = (
            abs(plain.s_value - 2.26) <= 0.005
            and abs(plain.sigma_s - 0.04) <= 0.005
            and abs(corrected.s_value - 2.30) <= 0.006
            and abs(corrected.sigma_s - 0.04) <= 0.005
            and corrected.s_value > plain.s_value
        )
        verdict(
            1,
            ok,
            f"S = {plain.s_value:.4f} +/- {plain.sigma_s:.4f}, "
            f"corrected {corrected.s_value:.4f} +/- {corrected.sigma_s:.4f}",
        )

    def test_02_rate_budget(self):
        src = PairSource(local_pair_rate=2e5, state=TwoQubitPolState(0.8))
        chain = DetectionChain(
            idler_transmittance=10 ** (-2.1), signal_efficiency=1.0, idler_efficiency=1.0
        )
        a = AnalyzerSetting(0.0)
        rate = expected_coincidence_rate(src, chain, a, a) + expected_coincidence_rate(
            src, chain, a, a.orthogonal()
        )
        count = np.random.default_rng(2).poisson(rate * 2.0)
        ok = abs(rate - 1589.0) < 1.0 and abs(count - 3178.0) < 5.0 * np.sqrt(3178.0)
        verdict(2, ok, f"matched rate {rate:.1f}/s, 2 s count {count}")

    def test_03_oracle_equivalence(self):
        rng = np.random.default_rng(3)
        worst_identity = 0.0
        for _ in range(100):
            v = rng.uniform()
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            p = coincidence_prob(TwoQubitPolState(v), a, b)
            closed = (1.0 + v * np.cos(2.0 * np.deg2rad(a.angle_deg - b.angle_deg))) / 4.0
            worst_identity = max(worst_identity, abs(p - closed))
        worst_paths = 0.0
        for _ in range(100):
            st = TwoQubitPolState(rng.uniform())
            a = AnalyzerSetting(rng.uniform(0, 180))
            b = AnalyzerSetting(rng.uniform(0, 180))
            t = PolTransform.random(rng)
            worst_paths = max(
                worst_paths,
                abs(coincidence_prob(st, a, b, t) - coincidence_prob_stokes(st, a, b, t)),
            )
        ok = worst_identity < 1e-9 and worst_paths < 1e-9
        verdict(
            3,
            ok,
            f"max |dm - closed form| = {worst_identity:.2e}, "
            f"max |Jones - Stokes| = {worst_paths:.2e}",
        )

    def test_04_coincidence_engine(self):
        def oracle(ref, tags, half_window):
            # vectorized O(n^2) greedy-nearest matcher
            used = np.zeros(len(ref), dtype=bool)
            count = 0
            for t in tags:
                d = np.abs(ref - t)
                d[used] = np.inf
                i = int(np.argmin(d))
                if d[i] <= half_window:
                    used[i] = True
                    count += 1
            return count

        rng = np.random.default_rng(4)
        mismatches = 0
        for _ in range(200):
            n1, n2 = rng.integers(50, 1001, size=2)
            span = rng.uniform(1e-4, 1e-2)
            a = np.sort(rng.uniform(0, span, n1))
            b = np.sort(rng.uniform(0, span, n2))
            w = rng.uniform(0.1, 10.0) * span / max(n1, n2)
            if _kernels.greedy_match(a, b, w) != oracle(a, b, w):
                mismatches += 1
        verdict(4, mismatches == 0, f"{200 - mismatches}/200 stream pairs match the oracle")

    def test_05_apc_convergence(self):
        cfg = ApcConfig()
        composites = []
        converged = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            ch = FiberChannel(DriftSchedule.constant(0.0), rng)
            ch.quat = haar_quat(rng)
            ctrl = Controller()
            rec = run_session(ch, ctrl, cfg, rng)
            if rec.outcome == "converged" and rec.min_fidelity_after >= 0.99:
                converged += 1
                composites.append(ctrl.to_transform().rotation @ matrix(ch.quat))
        rng = np.random.default_rng(500)
        sops = rng.standard_normal((1000, 3))
        sops /= np.linalg.norm(sops, axis=1, keepdims=True)
        # fidelity of each SOP through each converged composite
        fids = 0.5 * (1.0 + np.einsum("nj,kij,ni->kn", sops, np.array(composites), sops))
        ok = converged >= 0.95 * 200 and float(fids.min()) >= 0.98
        verdict(
            5,
            ok,
            f"{converged}/200 sessions converged, worst pass-through "
            f"fidelity {fids.min():.4f} over 1000 SOPs",
        )

    def test_06_fringe_end_to_end(self, tmp_path):
        cfg = {
            "scenario": "fringe",
            "channel": {"loss_db": 21.0, "schedule": {"kind": "constant", "rate": 0.0}},
            "source": {"local_pair_rate": 2.0e5, "visibility": 0.80},
            "detection": {"signal_efficiency": 1.0, "idler_efficiency": 1.0},
        }
        s_values = []
        for seed in range(50):
            summary = cli._run_one("fringe", cfg, seed, tmp_path / f"seed_{seed}")
            s_values.append(summary["chsh"]["S"])
        mean = float(np.mean(s_values))
        sem = float(np.std(s_values, ddof=1) / np.sqrt(len(s_values)))
        ok = abs(mean - 2.263) <= 2.0 * sem
        verdict(6, ok, f"mean S = {mean:.4f} +/- {sem:.4f} over 50 seeds (target 2.263)")

    def test_07_longrun_stabilized(self, tmp_path):
        cfg = cli.load_config("configs/longrun_stabilized.yaml")
        summary = cli._run_one("longrun", cfg, int(cfg["seed"]), tmp_path)
        rows = (tmp_path / "sessions.csv").read_text().strip().splitlines()[1:]
        durations = np.array([float(r.split(",")[2]) for r in rows])
        hist, edges = np.histogram(durations, bins=np.arange(0.0, 57.0, 1.0))
        mode_sub_second = int(np.argmax(hist)) == 0
        heavy_tail = float(durations.max()) >= ApcConfig().timeout_s
        ok = (
            abs(summary["uptime_fraction"] - 0.928) <= 0.02
            and summary["mean_S"] > 2.0
            and summary["corrected_mean_S"] >= summary["mean_S"]
            and mode_sub_second
            and heavy_tail
        )
        verdict(
            7,
            ok,
            f"uptime {summary['uptime_fraction']:.4f}, mean S {summary['mean_S']:.4f}, "
            f"corrected {summary['corrected_mean_S']:.4f}, session mode "
            f"{edges[np.argmax(hist)]:.0f}-{edges[np.argmax(hist) + 1]:.0f} s, "
            f"longest {durations.max():.1f} s",
        )

    def test_08_longrun_unstabilized(self, tmp_path):
        cfg = cli.load_config("configs/longrun_unstabilized.yaml")
        per_seed = []
        for i in range(20):
            out = tmp_path / f"seed_{i}"
            cli._run_one("longrun", cfg, int(cfg["seed"]) + i, out)
            rows = (out / "series.csv").read_text().strip().splitlines()[1:]
            per_seed.append([float(r.split(",")[2]) for r in rows])
        n = min(len(s) for s in per_seed)
        s_matrix = np.array([s[:n] for s in per_seed])
        median = np.median(s_matrix, axis=0)
        # monotone-trend decay: binned medians fall from a violating start to a
        # decorrelated noise floor around 0 and never recover
        bins = np.array([b.mean() for b in np.array_split(median, 6)])
        starts_violating = float(median[:2].mean()) > 2.0
        trend_decays = bool(np.all(np.diff(bins) < 0.15)) and bins[-1] < bins[0] - 0.5
        below = np.nonzero(median < 2.0)[0]
        crossed = below.size > 0
        stays_below = crossed and np.all(median[below[0] :] < 2.0)
        ok = starts_violating and trend_decays and crossed and stays_below
        verdict(
            8,
            ok,
            f"median S over 20 seeds starts at {median[0]:.3f}, binned trend "
            f"{np.round(bins, 2).tolist()}, first sub-2 group "
            f"{below[0] if crossed else 'none'} of {n}, no recovery afterwards",
        )

    def test_09_calibration(self, tmp_path):
        cfg = cli.load_config("configs/calibrate.yaml")
        payload = cli._run_one("calibrate", cfg, int(cfg.get("seed", 0)), tmp_path)
        held_out = calibrate.median_crossing_time(
            payload["day_rate"], 0.95, n_seeds=200, max_time_s=80.0, seed=987654
        )
        ok = abs(held_out - 20.0) <= 0.05 * 20.0
        verdict(
            9,
            ok,
            f"calibrated rate {payload['day_rate']:.6f} rad^2/s gives held-out "
            f"median crossing {held_out:.2f} s (target 20 +/- 1 s)",
        )

    @pytest.mark.parametrize(
        "scenario,config",
        [
            ("probe", "configs/probe.yaml"),
            ("fringe", "configs/fringe.yaml"),
            ("longrun", "configs/longrun_stabilized.yaml"),
            ("calibrate", "configs/calibrate.yaml"),
        ],
    )
    def test_10_determinism(self, tmp_path, scenario, config):
        cfg = cli.load_config(config)
        seed = int(cfg.get("seed", 0))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cli._run_one(scenario, cfg, seed, out)
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            )
        same_names = sorted(outs[0]) == sorted(outs[1])
        diffs = [name for name in outs[0] if outs[0][name] != outs[1].get(name)]
        ok = same_names and not diffs
        verdict(
            10,
            ok,
            f"{scenario}: {len(outs[0])} output files byte-identical"
            + ("" if ok else f" (differs: {diffs})"),
        )
