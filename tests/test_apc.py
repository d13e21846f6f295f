"""Compensation loop: fidelity measurement, cost, descent and sessions."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from polarlink import apc, cli
from polarlink.apc import (
    OUTCOME_CONVERGED,
    OUTCOME_SKIPPED,
    OUTCOME_TIMEOUT,
    ApcConfig,
    Controller,
    compensation_step,
    cost,
    measure_fidelities,
    run_session,
)
from polarlink.channel import DAY_RATE, DriftSchedule, FiberChannel
from polarlink.polmath import compose_quat
from tests.oracles import (
    IDENTITY_QUAT,
    CountingStream,
    _controller_quat,
    _cost_at,
    controller_matrix,
    fidelity_cost,
    haar_quat,
    matrix,
    three_product_step,
)


def controller_for(rotation):
    """Controller whose transform is ``rotation``: x-z-x Euler angles, last retarder at 0."""
    return Controller(np.array([*Rotation.from_matrix(rotation).as_euler("xzx"), 0.0]))


def static_channel(seed=0, rate=0.0):
    return FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))


def channel_at(quat, seed=0):
    """A still channel at rotation ``quat``, its kicks drawn as ``default_rng(seed)``'s."""
    ch = static_channel(seed)
    ch.quat = quat
    return ch


class TestController:
    def test_identity_at_zero(self):
        t = Controller().to_transform()
        assert np.allclose(t.rotation, np.eye(3), atol=1e-12)

    def test_params_are_a_float_tuple_built_with_their_quat(self):
        # whatever sequence the angles come in, they are stored as Python
        # floats that cannot change in place, with the rotation built from them
        for given in ([0, 1, -2, 3], np.array([0.1, -0.2, 3.0, -np.pi])):
            ctrl = Controller(given)
            assert type(ctrl.params) is tuple
            assert [type(p) for p in ctrl.params] == [float] * 4
            assert ctrl.params == tuple(float(p) for p in given)
            assert hexes(ctrl.quat) == hexes(apc._params_quat(ctrl.params))
            with pytest.raises(TypeError):
                ctrl.params[0] = 0.0

    def test_step_sets_the_rotation_it_built(self, monkeypatch):
        # each step builds one rotation per line-search candidate and per
        # kick, and stores the one it accepts; the re-measure cycle builds none
        real_quat, real_cost, real_step = apc._params_quat, apc.cost, apc.compensation_step
        built, costs, steps = [], [], []

        def recording_quat(params):
            built.append(real_quat(params))
            return built[-1]

        def recording_cost(w):
            costs.append(1)
            return real_cost(w)

        def checked_step(ch, ctrl, cfg):
            before = len(built), len(costs), ch.normals.kicks
            real_step(ch, ctrl, cfg)
            after = len(built), len(costs), ch.normals.kicks
            n_built, n_costs, n_kicks = [a - b for a, b in zip(after, before)]
            assert n_built == (n_costs - 1) + n_kicks  # the setting's cost comes first
            assert n_built == 0 or ctrl.quat is built[-1]
            assert hexes(ctrl.quat) == hexes(real_quat(ctrl.params))
            steps.append(n_built)

        # a step size of 1e4 overshoots in every halving, which ends in a kick
        sessions = [(ApcConfig(), Controller()), (ApcConfig(step_size=1e4), Controller())]
        monkeypatch.setattr(apc, "_params_quat", recording_quat)
        monkeypatch.setattr(apc, "cost", recording_cost)
        monkeypatch.setattr(apc, "compensation_step", checked_step)
        kicks = 0
        for cfg, ctrl in sessions:
            built.clear()
            steps.clear()
            ch = static_channel(seed=9)
            ch.quat = haar_quat(np.random.default_rng(9))
            ch.normals = CountingStream(ch.normals)
            rec = run_session(ch, ctrl, cfg)
            assert rec.iterations == len(steps) >= 2
            assert len(built) == sum(steps)
            assert ctrl.quat is built[-1]
            kicks += ch.normals.kicks
        assert kicks

    def test_parameterization_reaches_random_rotations(self):
        # the x-z-x-z chain is surjective: a controller exists for any
        # channel inverse, which is what a converged session must realize
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = matrix(haar_quat(rng))
            c = controller_for(ch.T)
            composite = c.to_transform().rotation @ ch
            assert np.allclose(composite, np.eye(3), atol=1e-9)

    def test_quat_equals_the_three_product_oracle(self):
        rng = np.random.default_rng(22)
        settings = [p for _, p in step_cases(rng, 2000)]
        settings += [np.array(p, dtype=float) for p in np.ndindex(3, 3, 3, 3)]
        for params in settings:
            assert Controller(params).quat == _controller_quat(params.tolist())


class TestMeasureAndCost:
    def test_identity_gives_unit_fidelities(self):
        fids = measure_fidelities(IDENTITY_QUAT, Controller())
        assert np.allclose(fids, 1.0, atol=1e-12)
        assert cost(compose_quat(Controller().quat, IDENTITY_QUAT)[3]) == 0.0

    def test_within_1e15_of_the_matrix_oracle(self):
        # the fidelities and the cost read off the composite quaternion must
        # agree to 1e-15 with the 6x3 matmul over the cardinal stack of the
        # matrix path (scipy's controller matrix times the channel matrix),
        # and to 1e-12 with the per-state (1 + s.Rs)/2 evaluation
        # the Stokes vectors of H, V, D, A, R, L
        m = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
        rng = np.random.default_rng(3)
        # identity and half-turns about each axis (signed zeros), controller angles of ±π
        channels = [IDENTITY_QUAT, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
        signs = [(0, 0, 0, 0), (1, 1, 1, 1), (-1, -1, -1, -1), (1, -1, 0, 1)]
        angles = [np.pi * np.array(p, dtype=float) for p in signs]
        pairs = [(q, p) for q in channels for p in angles]
        pairs += [(haar_quat(rng), rng.uniform(-np.pi, np.pi, 4)) for _ in range(10_000)]
        for chan, params in pairs:
            ctrl = Controller(params)
            fids = measure_fidelities(chan, ctrl)
            composite = controller_matrix(params) @ matrix(chan)
            oracle = 0.5 * (1.0 + np.einsum("ij,ij->i", m, m @ composite.T))
            assert np.abs(np.array(fids) - oracle).max() <= 1e-15
            assert _cost_at(ctrl.params, chan) == fidelity_cost(fids)
            assert abs(_cost_at(ctrl.params, chan) - (1 - oracle.mean())) <= 1e-15
        for chan, params in pairs[:40]:
            composite = controller_matrix(params) @ matrix(chan)
            expected = [0.5 * (1 + s @ composite @ s) for s in m]
            assert np.allclose(measure_fidelities(chan, Controller(params)), expected, atol=1e-12)

    def test_fidelity_cost_is_numpy_mean_bit_for_bit(self):
        rng = np.random.default_rng(11)
        vectors = [np.ones(6), np.zeros(6), np.full(6, -0.0), np.array([0.0, -0.0] * 3)]
        # fidelities of all-ones, all-zeros and signed-zero diagonals
        for d in ([1.0, 1, 1], [0.0, 0, 0], [-0.0, 0.0, -0.0], [-1.0, -1, -1]):
            vectors.append(np.repeat(0.5 * (1.0 + np.array(d)), 2))
        vectors += list(rng.uniform(0.0, 1.0, (5000, 6)))
        vectors += list(1.0 - rng.uniform(0.0, 1.0, (5000, 6)) ** 8)  # near 1, as in sessions
        vectors += list(np.repeat(rng.uniform(0.0, 1.0, (2000, 3)), 2, axis=1))
        for f in vectors:
            expected = 1.0 - np.mean(f)
            assert fidelity_cost(f) == expected and fidelity_cost(f.tolist()) == expected

    def test_cost_within_4e16_of_the_six_fidelity_cost(self):
        # the six fidelities average (1 + tr C / 3) / 2 and tr C = 4 w^2 - 1
        rng = np.random.default_rng(14)
        for chan, params in step_cases(rng, 2000):
            ctrl = Controller(params)
            w = compose_quat(ctrl.quat, chan)[3]
            assert abs(cost(w) - fidelity_cost(measure_fidelities(chan, ctrl))) <= 4e-16

    def test_cost_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = cost(haar_quat(rng)[3])
            assert 0.0 <= c <= 2.0 / 3.0


def step_cases(rng, n_random):
    """(channel, setting) pairs: random settings, signed zeros, ±π, angles
    near 1e3, and optima, where the gradient vanishes."""
    cases = [(haar_quat(rng), rng.uniform(-np.pi, np.pi, 4)) for _ in range(n_random)]
    small = rng.uniform(-1e-3, 1e-3, (20, 4)) * rng.integers(0, 2, (20, 4))  # signed zeros
    cases += [(haar_quat(rng), p) for p in small]
    cases += [(haar_quat(rng), rng.choice([0.0, -0.0], 4)) for _ in range(20)]
    cases += [(haar_quat(rng), rng.choice([np.pi, -np.pi, 0.0, -0.0], 4)) for _ in range(20)]
    cases += [(haar_quat(rng), 1e3 + rng.uniform(-1.0, 1.0, 4)) for _ in range(20)]
    cases += [(haar_quat(rng), rng.uniform(-10.0, 10.0, 4)) for _ in range(20)]
    cases += [(IDENTITY_QUAT, np.array([0.0, -0.0, 0.0, -0.0]))]
    for chan, params in cases[:20]:
        cases.append((chan, np.array(controller_for(matrix(chan).T).params)))
    return cases


def hexes(values):
    return [float(v).hex() for v in values]


class TestCompensationStep:
    @pytest.mark.parametrize("d", [0.02, 1e-3])
    def test_gradient_is_the_central_difference_within_2e14(self, d):
        # as a function of one angle the cost is a sinusoid, so its central
        # difference over ±d is sin(d)/d times its derivative, -(2/3) w w_k,
        # where w_k is w with factor k's (sin, cos) swapped for (cos, -sin).
        # The difference divides the costs' rounding by 2d: the bound is 2e-14
        # at the shipped d of 0.02, and grows as 1/d below it
        rng = np.random.default_rng(21)
        bound = 2e-14 * max(1.0, 0.02 / d)
        for _ in range(2000):
            chan, params = haar_quat(rng), rng.uniform(-np.pi, np.pi, 4).tolist()
            w = compose_quat(_controller_quat(params), chan)[3]
            for k in range(4):
                w_k = compose_quat(_controller_quat(params, swapped=k), chan)[3]
                plus = [p + (d if i == k else 0.0) for i, p in enumerate(params)]
                minus = [p - (d if i == k else 0.0) for i, p in enumerate(params)]
                difference = (_cost_at(plus, chan) - _cost_at(minus, chan)) / (2.0 * d)
                assert abs(difference - math.sin(d) / d * (-2.0 / 3.0 * w * w_k)) <= bound

    def test_does_not_increase_cost(self):
        rng = np.random.default_rng(5)
        cfg = ApcConfig()
        for i in range(30):
            chan = haar_quat(rng)
            ctrl = Controller(rng.uniform(-np.pi, np.pi, 4))
            before = fidelity_cost(measure_fidelities(chan, ctrl))
            compensation_step(channel_at(chan, i), ctrl, cfg)
            after = fidelity_cost(measure_fidelities(chan, ctrl))
            # a random kick (stall escape) may increase cost slightly
            assert after <= before + 0.05

    def test_angles_match_the_oracle_step(self, monkeypatch):
        # the closed-form step against the step that measures its gradient by
        # central differences of the six-fidelity cost, on random settings,
        # signed zeros, ±π, angles near 1e3 and optima; a step size of 1e4
        # overshoots in most halvings, which can end in the random kick.  The
        # oracle's differences are exact only to the spacing of the angles
        # they perturb and divide the costs' rounding by 2 fd_delta, and a step
        # multiplies a gradient's rounding by its length: so the angles agree
        # to 1e-12 at the shipped step of 4, fd_delta of 0.02 and angles up to
        # 100 rad, a bound scaled with the step, 1/fd_delta and the angles
        # past those.  Where a cost sits within rounding of the setting's,
        # the two can take different branches: at most 1 case in 1,000.
        seen = []
        real_cost = apc.cost

        def recording(w):
            seen.append(w)
            return real_cost(w)

        monkeypatch.setattr(apc, "cost", recording)
        rng = np.random.default_rng(12)
        cases = step_cases(rng, 2000)
        branches, differing = set(), 0
        for i, (chan, params) in enumerate(cases):
            cfg = ApcConfig(step_size=[4.0, 0.5, 1e4][i % 3], fd_delta=[0.02, 1e-3][i % 2])
            ch, ctrl = channel_at(chan, i), Controller(params)
            ch.normals = CountingStream(ch.normals)
            seen.clear()
            compensation_step(ch, ctrl, cfg)
            branch = len(seen) - 1 + ch.normals.kicks  # the candidates tried, plus the kick
            expected = Controller(params)
            if branch != three_product_step(channel_at(chan, i), expected, cfg):
                differing += 1
                continue
            branches.add(branch)
            scale = max(1.0, cfg.step_size / 4.0) * max(1.0, 0.02 / cfg.fd_delta)
            scale *= max(1.0, np.abs(params).max() / 100.0)
            assert np.abs(np.subtract(ctrl.params, expected.params)).max() <= 1e-12 * scale
            assert ctrl.quat == _controller_quat(ctrl.params)
        assert branches == set(range(8))  # optima, each halving, the kick
        assert differing <= len(cases) // 1000

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(6)
        chan = haar_quat(rng)
        ctrl = controller_for(matrix(chan).T)
        before = ctrl.params
        compensation_step(channel_at(chan, 6), ctrl, ApcConfig())
        assert np.allclose(ctrl.params, before, atol=1e-12)


class TestRunSession:
    def test_skip_when_aligned(self):
        ch = static_channel(seed=7)
        rec = run_session(ch, Controller(), ApcConfig())
        assert rec.outcome == OUTCOME_SKIPPED
        assert rec.iterations == 0
        assert rec.duration_s == pytest.approx(ApcConfig().cycle_time_s)
        assert rec.min_fidelity_before == pytest.approx(1.0)

    def test_no_actuate_never_moves_controller(self):
        ch = static_channel(seed=8)
        ch.quat = haar_quat(np.random.default_rng(8))
        ctrl = Controller()
        rec = run_session(ch, ctrl, ApcConfig(), actuate=False)
        assert rec.outcome == OUTCOME_SKIPPED
        assert np.allclose(ctrl.params, 0.0)
        assert rec.min_fidelity_after == rec.min_fidelity_before

    def test_converges_on_static_misaligned_channel(self):
        cfg = ApcConfig()
        ch = static_channel(seed=9)
        ch.quat = haar_quat(np.random.default_rng(9))
        ctrl = Controller()
        rec = run_session(ch, ctrl, cfg)
        assert rec.outcome == OUTCOME_CONVERGED
        assert rec.min_fidelity_after >= cfg.target_threshold
        fids = measure_fidelities(ch.quat, ctrl)
        assert min(fids) >= cfg.target_threshold

    def test_duration_accounting(self):
        # duration = cycle_time * (1 + 9 * iterations) exactly
        cfg = ApcConfig()
        for seed in range(5):
            ch = static_channel(seed=20 + seed)
            ch.quat = haar_quat(np.random.default_rng(20 + seed))
            rec = run_session(ch, Controller(), cfg)
            assert rec.duration_s == pytest.approx(
                cfg.cycle_time_s * (1 + 9 * rec.iterations)
            )
            assert ch.sim_time == pytest.approx(rec.start_time_s + rec.duration_s)

    def test_timeout_on_violent_drift(self):
        # drive the channel far above the day rate so no session can lock
        cfg = ApcConfig()
        sched = DriftSchedule.constant(DAY_RATE * 300)
        outcomes = []
        for seed in range(5):
            ch = FiberChannel(sched, np.random.default_rng(seed))
            ch.quat = haar_quat(np.random.default_rng(100 + seed))
            rec = run_session(ch, Controller(), cfg)
            outcomes.append(rec.outcome)
            if rec.outcome == OUTCOME_TIMEOUT:
                assert rec.duration_s >= cfg.timeout_s
                assert rec.duration_s <= cfg.timeout_s + 9 * cfg.cycle_time_s + 1e-9
        assert OUTCOME_TIMEOUT in outcomes

    def test_timeout_counts_cycles_where_the_clock_cannot_move(self, monkeypatch):
        # at 1e13 s a cycle of 1e-4 s is under half an ulp of the clock, which
        # stays put; the session still times out after its 100 cycles
        steps = []
        real_step = apc.compensation_step

        def bounded_step(*args):
            steps.append(1)
            if len(steps) > 1000:
                raise AssertionError("the session did not time out")
            return real_step(*args)

        monkeypatch.setattr(apc, "compensation_step", bounded_step)
        threshold = 0.9999999999999999
        cfg = ApcConfig(threshold, threshold, timeout_s=0.01, cycle_time_s=1.0e-4)
        sched = DriftSchedule.constant(DAY_RATE)
        ch = FiberChannel(sched, np.random.default_rng(5), sim_time=1.0e13)
        ch.quat = haar_quat(np.random.default_rng(5))
        rec = run_session(ch, Controller(), cfg)
        assert ch.sim_time == 1.0e13 and rec.duration_s == 0.0
        assert rec.outcome == OUTCOME_TIMEOUT
        assert rec.iterations == len(steps) == 11  # 1 + 9 * 11 = 100 cycles

    def test_kicks_draw_from_the_channel_stream(self):
        # a step size of 1e4 ends most descent steps in a kick; on a fast
        # channel the kicks and the walks share the channel's stream, which
        # over 200 sessions hands out the seed's normals in order, none skipped
        ch = FiberChannel(DriftSchedule.constant(20 * DAY_RATE), np.random.default_rng(1))
        ch.normals = CountingStream(ch.normals)
        ctrl, cfg = Controller(), ApcConfig(step_size=1e4)
        records = [run_session(ch, ctrl, cfg) for _ in range(200)]
        assert {r.outcome for r in records} == {OUTCOME_SKIPPED, OUTCOME_CONVERGED, OUTCOME_TIMEOUT}
        assert ch.normals.kicks > 1000
        twin = np.random.default_rng(1)
        twin.standard_normal(ch.normals.drawn)
        assert ch.normals.take(5) == twin.standard_normal(5).tolist()

    def test_deterministic(self):
        def run(seed):
            ch = static_channel(seed=seed, rate=DAY_RATE)
            ch.quat = haar_quat(np.random.default_rng(40))
            rec = run_session(ch, Controller(), ApcConfig())
            return rec

        assert run(3) == run(3)


class TestAgainstTheOracleStep:
    # per output file, its fidelity columns: written to 9 decimals, they may
    # differ by one in the last; every other column must be equal
    FIDELITY_COLUMNS = {
        "sessions.csv": {"min_f_before", "min_f_after"},
        "timeline.csv": {"min_f_after"},
        "series.csv": {"min_ref_fidelity"},
    }

    def test_longrun_outputs_equal_the_oracle_steps(self, monkeypatch, tmp_path, capsys):
        # configs/longrun_stabilized.yaml at seed 39, where the closed-form
        # step moves the most lines of seeds 11-40 (48 of sessions.csv),
        # against the same run with the central-difference step: every
        # session's outcome, iterations, duration and start, every count and
        # S, and summary.json are the same
        config = Path(__file__).resolve().parents[1] / "configs" / "longrun_stabilized.yaml"
        argv = ["longrun", "--config", str(config), "--seed", "39", "--out"]
        assert cli.main(argv + [str(tmp_path / "closed_form")]) == 0
        monkeypatch.setattr(apc, "compensation_step", three_product_step)
        assert cli.main(argv + [str(tmp_path / "oracle")]) == 0
        capsys.readouterr()
        got, expected = tmp_path / "closed_form", tmp_path / "oracle"
        assert sorted(f.name for f in got.iterdir()) == sorted(f.name for f in expected.iterdir())
        summary = json.loads((got / "summary.json").read_text())
        assert summary == json.loads((expected / "summary.json").read_text())
        assert summary["fraction_timeout"] > 0.0 and summary["fraction_converged"] > 0.0
        for name, fidelities in self.FIDELITY_COLUMNS.items():
            rows = [(got / name).read_text().splitlines(), (expected / name).read_text().splitlines()]
            assert len(rows[0]) == len(rows[1]) and rows[0][0] == rows[1][0]
            header = rows[0][0].split(",")
            for line, oracle_line in zip(rows[0][1:], rows[1][1:]):
                for column, a, b in zip(header, line.split(","), oracle_line.split(",")):
                    if a != b:
                        assert column in fidelities
                        assert abs(round(float(a) * 1e9) - round(float(b) * 1e9)) <= 1
