"""Compensation loop: fidelity measurement, cost, descent and sessions."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from polarlink import apc
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
    write_sessions_csv,
)
from polarlink.channel import DAY_RATE, DriftSchedule, FiberChannel
from tests.oracles import (
    IDENTITY_QUAT,
    _controller_quat,
    _cost_at,
    controller_matrix,
    csv_writer_text,
    haar_quat,
    matrix,
)


def controller_for(rotation):
    """Controller whose transform is ``rotation``: x-z-x Euler angles, last retarder at 0."""
    return Controller(np.array([*Rotation.from_matrix(rotation).as_euler("xzx"), 0.0]))


def static_channel(seed=0, rate=0.0):
    return FiberChannel(DriftSchedule.constant(rate), np.random.default_rng(seed))


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
        built, costs, kicks, steps = [], [], [], []

        def recording_quat(params):
            built.append(real_quat(params))
            return built[-1]

        def recording_cost(fidelities):
            costs.append(1)
            return real_cost(fidelities)

        class KickCounting:
            def __init__(self, rng):
                self.rng = rng

            def normal(self, *args, **kwargs):
                kicks.append(1)
                return self.rng.normal(*args, **kwargs)

        def checked_step(channel_quat, ctrl, cfg, rng):
            before = len(built), len(costs), len(kicks)
            real_step(channel_quat, ctrl, cfg, rng)
            n_built, n_costs, n_kicks = [len(x) - n for x, n in zip((built, costs, kicks), before)]
            assert n_built == (n_costs - 9) + n_kicks  # the setting and 8 trials come first
            assert n_built == 0 or ctrl.quat is built[-1]
            assert hexes(ctrl.quat) == hexes(real_quat(ctrl.params))
            steps.append(n_built)

        # a step size of 1e4 overshoots in every halving, which ends in a kick
        sessions = [(ApcConfig(), Controller()), (ApcConfig(step_size=1e4), Controller())]
        monkeypatch.setattr(apc, "_params_quat", recording_quat)
        monkeypatch.setattr(apc, "cost", recording_cost)
        monkeypatch.setattr(apc, "compensation_step", checked_step)
        for cfg, ctrl in sessions:
            built.clear()
            steps.clear()
            ch = static_channel(seed=9)
            ch.quat = haar_quat(np.random.default_rng(9))
            rec = run_session(ch, ctrl, cfg, KickCounting(np.random.default_rng(9)))
            assert rec.iterations == len(steps) >= 2
            assert len(built) == sum(steps)
            assert ctrl.quat is built[-1]
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
        assert cost(fids) == pytest.approx(0.0, abs=1e-12)

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
            assert _cost_at(ctrl.params, chan) == cost(fids)
            assert abs(_cost_at(ctrl.params, chan) - (1 - oracle.mean())) <= 1e-15
        for chan, params in pairs[:40]:
            composite = controller_matrix(params) @ matrix(chan)
            expected = [0.5 * (1 + s @ composite @ s) for s in m]
            assert np.allclose(measure_fidelities(chan, Controller(params)), expected, atol=1e-12)

    def test_cost_is_numpy_mean_bit_for_bit(self):
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
            assert cost(f) == expected and cost(f.tolist()) == expected

    def test_cost_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = cost(measure_fidelities(haar_quat(rng), Controller()))
            assert 0.0 <= c <= 1.0


def numpy_compensation_step(chan, params, cfg, rng):
    """``compensation_step`` in numpy arrays, as it was written before its float
    lists: the parameters it returns."""

    def cost_at(p):
        return _cost_at(p.tolist(), chan)

    base = cost_at(params)
    grad = np.zeros(4)
    for k in range(4):
        delta = np.zeros(4)
        delta[k] = cfg.fd_delta
        grad[k] = (cost_at(params + delta) - cost_at(params - delta)) / (2.0 * cfg.fd_delta)
    if float(np.linalg.norm(grad)) < 1e-9:
        return params
    step = cfg.step_size
    for _ in range(6):
        candidate = params - step * grad
        if cost_at(candidate) <= base:
            return candidate
        step *= 0.5
    return params + rng.normal(0.0, cfg.fd_delta, size=4)


def oracle_costs(chan, params, cfg):
    """The costs ``compensation_step`` evaluates, in its order, each from
    ``_cost_at``: the setting, the + and - trial of each angle, then the
    line-search candidates up to the accepted one."""
    d = cfg.fd_delta
    base = _cost_at(params, chan)
    costs, grad = [base], []
    for k in range(4):
        plus = _cost_at([p + (d if i == k else 0.0) for i, p in enumerate(params)], chan)
        minus = _cost_at([p - (d if i == k else 0.0) for i, p in enumerate(params)], chan)
        costs += [plus, minus]
        grad.append((plus - minus) / (2.0 * d))
    if float(np.linalg.norm(grad)) < 1e-9:
        return costs
    step = cfg.step_size
    for _ in range(6):
        costs.append(_cost_at([p - step * g for p, g in zip(params, grad)], chan))
        if costs[-1] <= base:
            break
        step *= 0.5
    return costs


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
    def test_trial_costs_equal_the_oracle_bit_for_bit(self, monkeypatch):
        # every cost the step evaluates, in order, against the setting's cost
        # composed from three full compose_quat products; one cost call per
        # evaluation: the setting, 8 trials, then the candidates
        seen = []
        real_cost = apc.cost

        def recording(fidelities):
            seen.append(real_cost(fidelities))
            return seen[-1]

        monkeypatch.setattr(apc, "cost", recording)
        rng = np.random.default_rng(21)
        candidates = set()
        for i, (chan, params) in enumerate(step_cases(rng, 400)):
            cfg = ApcConfig(step_size=[4.0, 0.5, 1e4][i % 3], fd_delta=[0.02, 1e-3][i % 2])
            seen.clear()
            compensation_step(chan, Controller(params), cfg, np.random.default_rng(i))
            expected = oracle_costs(chan, params.tolist(), cfg)
            assert hexes(seen) == hexes(expected)
            assert len(seen) >= 9
            candidates.add(len(seen) - 9)
        assert candidates == {0, 1, 2, 3, 4, 5, 6}  # optima, each halving, the kick

    def test_does_not_increase_cost(self):
        rng = np.random.default_rng(5)
        cfg = ApcConfig()
        for _ in range(30):
            chan = haar_quat(rng)
            ctrl = Controller(rng.uniform(-np.pi, np.pi, 4))
            before = cost(measure_fidelities(chan, ctrl))
            compensation_step(chan, ctrl, cfg, rng)
            after = cost(measure_fidelities(chan, ctrl))
            # a random kick (stall escape) may increase cost slightly
            assert after <= before + 0.05

    def test_equals_the_numpy_step_bit_for_bit(self):
        # the float step against the same step in numpy arrays, on random
        # settings, settings with signed zeros and optima; a step size of 1e4
        # overshoots in every halving, which ends in the random kick
        rng = np.random.default_rng(12)
        cases = [(haar_quat(rng), rng.uniform(-np.pi, np.pi, 4)) for _ in range(300)]
        cases += [(haar_quat(rng), np.array([0.0, -0.0, -0.0, 0.0])) for _ in range(20)]
        cases += [(IDENTITY_QUAT, np.array([0.0, -0.0, 0.0, -0.0]))]
        for chan, params in cases[:30]:
            cases.append((chan, np.array(controller_for(matrix(chan).T).params)))
        for i, (chan, params) in enumerate(cases):
            cfg = ApcConfig(step_size=[4.0, 0.5, 1e4][i % 3], fd_delta=[0.02, 1e-3][i % 2])
            ctrl = Controller(params)
            compensation_step(chan, ctrl, cfg, np.random.default_rng(i))
            expected = numpy_compensation_step(chan, params, cfg, np.random.default_rng(i))
            assert np.array_equal(np.signbit(ctrl.params), np.signbit(expected))
            assert np.array_equal(ctrl.params, expected)
            assert ctrl.quat == _controller_quat(ctrl.params)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(6)
        chan = haar_quat(rng)
        ctrl = controller_for(matrix(chan).T)
        before = ctrl.params
        compensation_step(chan, ctrl, ApcConfig(), rng)
        assert np.allclose(ctrl.params, before, atol=1e-12)


class TestRunSession:
    def test_skip_when_aligned(self):
        ch = static_channel(seed=7)
        rec = run_session(ch, Controller(), ApcConfig(), np.random.default_rng(7))
        assert rec.outcome == OUTCOME_SKIPPED
        assert rec.iterations == 0
        assert rec.duration_s == pytest.approx(ApcConfig().cycle_time_s)
        assert rec.min_fidelity_before == pytest.approx(1.0)

    def test_no_actuate_never_moves_controller(self):
        ch = static_channel(seed=8)
        ch.quat = haar_quat(np.random.default_rng(8))
        ctrl = Controller()
        rec = run_session(ch, ctrl, ApcConfig(), np.random.default_rng(8), actuate=False)
        assert rec.outcome == OUTCOME_SKIPPED
        assert np.allclose(ctrl.params, 0.0)
        assert rec.min_fidelity_after == rec.min_fidelity_before

    def test_converges_on_static_misaligned_channel(self):
        cfg = ApcConfig()
        ch = static_channel(seed=9)
        ch.quat = haar_quat(np.random.default_rng(9))
        ctrl = Controller()
        rec = run_session(ch, ctrl, cfg, np.random.default_rng(9))
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
            rec = run_session(ch, Controller(), cfg, np.random.default_rng(seed))
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
            rec = run_session(ch, Controller(), cfg, np.random.default_rng(seed))
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
        rec = run_session(ch, Controller(), cfg, np.random.default_rng(5))
        assert ch.sim_time == 1.0e13 and rec.duration_s == 0.0
        assert rec.outcome == OUTCOME_TIMEOUT
        assert rec.iterations == len(steps) == 11  # 1 + 9 * 11 = 100 cycles

    def test_deterministic(self):
        def run(seed):
            ch = static_channel(seed=seed, rate=DAY_RATE)
            ch.quat = haar_quat(np.random.default_rng(40))
            rec = run_session(ch, Controller(), ApcConfig(), np.random.default_rng(seed))
            return rec

        assert run(3) == run(3)


class TestSessionsCsv:
    def test_writes_header_and_rows(self, tmp_path):
        ch = static_channel(seed=10)
        ch.quat = haar_quat(np.random.default_rng(10))
        rec = run_session(ch, Controller(), ApcConfig(), np.random.default_rng(10))
        path = tmp_path / "sessions.csv"
        write_sessions_csv(path, [rec])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("start_time_s,outcome")
        assert len(lines) == 2
        assert rec.outcome in lines[1]

    def test_bytes_equal_csv_writer(self, tmp_path):
        # every outcome, and the CRLF line ends csv.writer writes
        sched = DriftSchedule.constant(DAY_RATE * 300)
        records = []
        for seed in range(4):
            ch = FiberChannel(sched, np.random.default_rng(seed))
            ch.quat = haar_quat(np.random.default_rng(30 + seed))
            records.append(run_session(ch, Controller(), ApcConfig(), np.random.default_rng(seed)))
        records.append(run_session(static_channel(seed=7), Controller(), ApcConfig(), None))
        ch = static_channel(seed=9)
        ch.quat = haar_quat(np.random.default_rng(9))
        records.append(run_session(ch, Controller(), ApcConfig(), np.random.default_rng(9)))
        assert {r.outcome for r in records} == {OUTCOME_SKIPPED, OUTCOME_CONVERGED, OUTCOME_TIMEOUT}
        path = tmp_path / "sessions.csv"
        write_sessions_csv(path, records)
        header = "start_time_s outcome duration_s min_f_before min_f_after iterations".split()
        rows = [
            [f"{r.start_time_s:.6f}", r.outcome, f"{r.duration_s:.6f}",
             f"{r.min_fidelity_before:.9f}", f"{r.min_fidelity_after:.9f}", r.iterations]
            for r in records
        ]
        data = path.read_bytes()
        assert data == csv_writer_text([header, *rows]).encode()
        assert data.count(b"\r\n") == data.count(b"\n") == 1 + len(records)
