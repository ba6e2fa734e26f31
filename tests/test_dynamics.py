import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfbench import dynamics
from ctfbench.dynamics import (
    KSParams,
    LorenzParams,
    SimConfig,
    integrate_ks,
    integrate_lorenz,
    lorenz_rhs,
    make_initial_condition,
)
from ctfbench.exceptions import CTFBenchError, DivergenceError
from conftest import deadline, force_workers


def lorenz_cfg(**kw):
    defaults = dict(dt=0.01, total_steps=100, initial_condition=np.array([1.0, 1.0, 1.0]))
    defaults.update(kw)
    return SimConfig(**defaults)


def late(cfgs, firsts):
    """Each of `cfgs` recording from its step `first` on: its spin-up
    `first` steps longer and its recorded rows `first` fewer."""
    return [replace(c, spinup_steps=c.spinup_steps + first, total_steps=c.total_steps - first)
            for c, first in zip(cfgs, firsts)]


class TestLorenzRhs:
    def test_origin_is_fixed_point(self):
        assert np.array_equal(lorenz_rhs(np.zeros(3), LorenzParams()), np.zeros(3))

    def test_hand_evaluated_point(self):
        out = lorenz_rhs(np.array([1.0, 1.0, 1.0]), LorenzParams())
        assert np.allclose(out, [0.0, 26.0, 1.0 - 8.0 / 3.0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nontrivial_fixed_points(self, sign):
        p = LorenzParams()
        w = sign * np.sqrt(p.beta * (p.rho - 1.0))
        out = lorenz_rhs(np.array([w, w, p.rho - 1.0]), p)
        assert np.max(np.abs(out)) <= 1e-12


class TestIntegrateLorenz:
    def test_single_step_returns_ic(self):
        ic = np.array([1.0, 1.0, 1.0])
        m = integrate_lorenz(LorenzParams(), lorenz_cfg(total_steps=1))
        assert m.shape == (1, 3)
        assert np.array_equal(m[0], ic)

    def test_deterministic(self):
        cfg = SimConfig(dt=0.01, total_steps=500, spinup_steps=50, seed=42)
        a = integrate_lorenz(LorenzParams(), cfg)
        b = integrate_lorenz(LorenzParams(), cfg)
        assert np.array_equal(a, b)

    def test_convergence_order(self):
        # Endpoint error vs a dt/64 reference over a pre-chaotic horizon.
        horizon = 1.0
        base_dt = 0.01

        def endpoint(dt):
            steps = round(horizon / dt) + 1
            return integrate_lorenz(LorenzParams(), lorenz_cfg(dt=dt, total_steps=steps))[-1]

        ref = endpoint(base_dt / 64)
        e1 = np.linalg.norm(endpoint(base_dt) - ref)
        e2 = np.linalg.norm(endpoint(base_dt / 2) - ref)
        order = np.log2(e1 / e2)
        assert order >= 3.5
        assert order <= 7.0

    def test_attractor_bounded(self):
        m = integrate_lorenz(LorenzParams(), lorenz_cfg(total_steps=10000))
        assert np.abs(m[:, 2]).max() < 60.0

    def test_divergence_reports_step(self):
        with pytest.raises(DivergenceError) as err:
            integrate_lorenz(LorenzParams(), lorenz_cfg(dt=5.0, total_steps=50))
        assert err.value.step >= 1
        assert str(err.value.step) in str(err.value)

    # Absolute step numbers recorded with the original per-system loops; a
    # spin-up of 10 diverges inside the spin-up, one of 4 while recording.
    # A spin-up of 7 diverges on its last step, the state row 0 would
    # record; one of 6 on the step after row 0; one of 0 records from the
    # initial condition.
    @pytest.mark.parametrize("spinup", [10, 4, 0, 6, 7])
    def test_divergence_step_pinned(self, spinup):
        with pytest.raises(DivergenceError) as err:
            integrate_lorenz(
                LorenzParams(), lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=spinup)
            )
        assert err.value.step == 7

    def test_spinup_shifts_recording(self):
        cfg_a = lorenz_cfg(total_steps=20, spinup_steps=5)
        cfg_b = lorenz_cfg(total_steps=25)
        a = integrate_lorenz(LorenzParams(), cfg_a)
        b = integrate_lorenz(LorenzParams(), cfg_b)
        assert np.array_equal(a, b[5:])


class TestIntegrateKS:
    def test_constant_ic_is_equilibrium(self):
        n = 256
        cfg = SimConfig(dt=0.025, total_steps=200, initial_condition=np.full(n, 1.7))
        m = integrate_ks(KSParams(grid_points=n), cfg)
        assert np.abs(m - 1.7).max() <= 1e-10

    def test_spatial_mean_conserved(self):
        n = 256
        u0 = 0.3 + make_initial_condition("seeded-random-smooth", n, 5)
        cfg = SimConfig(dt=0.025, total_steps=1000, initial_condition=u0)
        m = integrate_ks(KSParams(grid_points=n), cfg)
        assert np.abs(m.mean(axis=1) - u0.mean()).max() <= 1e-8

    def test_stable_mode_decays_at_linear_rate(self):
        # A small single mode in the damped band decays like exp((q^2 - mu*q^4) t)
        # while the quadratic term stays negligible.
        n, length, mu = 256, 32.0 * np.pi, 1.0
        q = 2.0 * np.pi * 20 / length
        x = np.arange(n) * (length / n)
        u0 = 1e-4 * np.sin(q * x)
        steps, dt = 40, 0.025
        cfg = SimConfig(dt=dt, total_steps=steps + 1, initial_condition=u0)
        m = integrate_ks(KSParams(domain_length=length, grid_points=n, viscosity=mu), cfg)
        rate = q**2 - mu * q**4
        assert rate < 0
        measured = np.abs(m[-1]).max() / np.abs(m[0]).max()
        assert measured == pytest.approx(np.exp(rate * steps * dt), rel=1e-4)

    def test_convergence_order(self):
        n = 256
        x = np.arange(n) * (32.0 * np.pi / n)
        u0 = np.cos(x / 16.0) * (1.0 + np.sin(x / 16.0))
        horizon, base_dt = 2.5, 0.025
        params = KSParams(grid_points=n)

        def endpoint(dt):
            steps = round(horizon / dt) + 1
            cfg = SimConfig(dt=dt, total_steps=steps, initial_condition=u0)
            return integrate_ks(params, cfg)[-1]

        ref = endpoint(base_dt / 64)
        e1 = np.linalg.norm(endpoint(base_dt) - ref)
        e2 = np.linalg.norm(endpoint(base_dt / 2) - ref)
        order = np.log2(e1 / e2)
        assert order >= 3.5
        assert order <= 5.0

    def test_deterministic(self):
        cfg = SimConfig(dt=0.025, total_steps=50, spinup_steps=10, seed=9)
        a = integrate_ks(KSParams(grid_points=128), cfg)
        b = integrate_ks(KSParams(grid_points=128), cfg)
        assert np.array_equal(a, b)

    def test_divergence_reports_step(self):
        params = KSParams(domain_length=2.0 * np.pi, grid_points=64, viscosity=1e-6)
        with pytest.raises(DivergenceError) as err:
            integrate_ks(params, SimConfig(dt=0.025, total_steps=600, seed=3))
        assert err.value.step >= 1

    # See TestIntegrateLorenz.test_divergence_step_pinned.
    @pytest.mark.parametrize("spinup", [10, 3, 0, 6, 7])
    def test_divergence_step_pinned(self, spinup):
        params = KSParams(domain_length=2.0 * np.pi, grid_points=64, viscosity=0.01)
        cfg = SimConfig(dt=0.05, total_steps=50, spinup_steps=spinup, seed=3)
        with pytest.raises(DivergenceError) as err:
            integrate_ks(params, cfg)
        assert err.value.step == 7

    def test_explicit_ic_length_checked(self):
        with pytest.raises(ValueError, match="initial condition"):
            integrate_ks(
                KSParams(grid_points=64),
                SimConfig(dt=0.025, total_steps=2, initial_condition=np.zeros(32)),
            )


# A non-finite explicit state is refused before the first step, also when
# no step follows it.
@pytest.mark.parametrize("bad, total_steps", [(np.nan, 1), (np.inf, 50)])
@pytest.mark.parametrize("integrate, params, n", [
    (integrate_lorenz, LorenzParams(), 3),
    (integrate_ks, KSParams(grid_points=64), 64),
], ids=["lorenz", "ks"])
def test_non_finite_explicit_ic_is_error(integrate, params, n, bad, total_steps):
    ic = np.ones(n)
    ic[0] = bad
    cfg = SimConfig(dt=0.01, total_steps=total_steps, initial_condition=ic)
    with pytest.raises(ValueError, match="^explicit initial condition must be finite$"):
        integrate(params, cfg)


# Lengths around `_CHUNK`, the steps between two reads of `halted`: a lone
# first row, less than one chunk, exactly one chunk and a little more.
BATCH_LENGTHS = (1, 7, dynamics._CHUNK, dynamics._CHUNK + 5)


class TestBatch:
    @pytest.mark.parametrize("lengths", [BATCH_LENGTHS[:3], BATCH_LENGTHS[1:]])
    def test_lorenz_rows_equal_single_runs(self, lengths):
        params = [LorenzParams(rho=rho) for rho in (28.0, 24.0, 35.0)]
        cfgs = [SimConfig(dt=0.01, total_steps=t, spinup_steps=30, seed=s)
                for t, s in zip(lengths, (1, 2, 3))]
        rows = dynamics._lorenz_batch(params, cfgs)
        for p, c, row in zip(params, cfgs, rows):
            assert np.array_equal(row, integrate_lorenz(p, c))

    @pytest.mark.parametrize("lengths", [BATCH_LENGTHS[:3], BATCH_LENGTHS[1:]])
    def test_ks_rows_equal_single_runs(self, lengths):
        params = [KSParams(domain_length=22.0, grid_points=64, viscosity=mu)
                  for mu in (1.0, 0.8, 1.2)]
        cfgs = [SimConfig(dt=0.025, total_steps=t, spinup_steps=20, seed=s)
                for t, s in zip(lengths, (4, 5, 6))]
        rows = dynamics._ks_batch(params, cfgs)
        for p, c, row in zip(params, cfgs, rows):
            assert np.array_equal(row, integrate_ks(p, c))

    def test_row_judged_only_over_its_own_steps(self):
        # Alone, this schedule diverges at step 7; its 3 recorded rows end at step 6.
        cfgs = [lorenz_cfg(dt=0.15, total_steps=3, spinup_steps=4),
                lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=4)]
        params = [LorenzParams(), LorenzParams(rho=0.5)]
        rows = dynamics._lorenz_batch(params, cfgs)
        assert np.array_equal(rows[0], integrate_lorenz(params[0], cfgs[0]))
        assert np.all(np.isfinite(rows[1]))

    def test_ks_row_judged_only_over_its_own_steps(self):
        # Alone, viscosity 0.015 (seed 3) diverges at step 29; in one batch
        # with a longer finite row, its 5 recorded rows end at step 4. The
        # same holds for a Lorenz row, which its group steps on past its end:
        # alone, this schedule diverges at step 7; its 5 rows end at step 6.
        ks = ([KSParams(domain_length=2.0 * np.pi, grid_points=64, viscosity=mu)
               for mu in (0.015, 1.0)],
              [SimConfig(dt=0.05, total_steps=t, seed=3) for t in (5, 50)])
        lorenz = ([LorenzParams(), LorenzParams(rho=0.5)],
                  [lorenz_cfg(dt=0.15, total_steps=5, spinup_steps=2),
                   lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=10)])
        for batch, alone, (params, cfgs) in ((dynamics._ks_batch, integrate_ks, ks),
                                             (dynamics._lorenz_batch, integrate_lorenz, lorenz)):
            rows = batch(params, cfgs)
            for p, c, row in zip(params, cfgs, rows):
                assert np.array_equal(row, alone(p, c))

    @pytest.mark.parametrize("spinup", [10, 4])
    def test_divergence_names_earliest_row(self, spinup):
        cfg = lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=spinup)
        params = [LorenzParams(rho=0.5), LorenzParams(), LorenzParams()]
        with pytest.raises(DivergenceError, match="step 7 of trajectory 'b'") as err:
            dynamics._lorenz_batch(params, [cfg] * 3, ["a", "b", "c"])
        assert err.value.step == 7

    @pytest.mark.parametrize("index", [dynamics._CHUNK - 1, dynamics._CHUNK,
                                       dynamics._CHUNK + 1])
    def test_recorded_divergence_step_matches_spinup_check(self, index):
        # Fast, just-unstable RK4 growth; within the spin-up it diverges at
        # step 259. Recorded steps are judged as every step is; place the
        # divergence around the first chunk edge, where `halted` is read.
        params = LorenzParams(sigma=1000.0)
        with pytest.raises(DivergenceError) as alone:
            integrate_lorenz(params, lorenz_cfg(dt=0.0028, total_steps=1, spinup_steps=10**4))
        step = alone.value.step
        cfg = lorenz_cfg(dt=0.0028, total_steps=2 * dynamics._CHUNK, spinup_steps=step - index)
        with pytest.raises(DivergenceError) as err:
            integrate_lorenz(params, cfg)
        assert err.value.step == step == 259

    @pytest.mark.parametrize("batch, rows", [(dynamics._lorenz_batch, lambda t: lorenz_rows(t)),
                                             (dynamics._ks_batch, lambda t: ks_rows(t))],
                             ids=["lorenz", "ks"])
    def test_late_rows_are_tails_of_single_runs(self, batch, rows):
        # First recorded rows before, at and after the first chunk edge.
        lengths = (dynamics._CHUNK + 5, 7, dynamics._CHUNK + 5, 2 * dynamics._CHUNK)
        firsts = (0, 6, dynamics._CHUNK, dynamics._CHUNK + 1)
        params, cfgs = rows(lengths)
        alone = batch(params, cfgs)
        tails = batch(params, late(cfgs, firsts))
        assert [r.shape[0] for r in tails] == [t - f for t, f in zip(lengths, firsts)]
        for a, b, first in zip(alone, tails, firsts):
            assert np.array_equal(a[first:], b)

    # A late row diverges at step 7 (dt 0.15 from (1, 1, 1)) during the
    # spin-up (10) or after it (4), before its first recorded row (20).
    @pytest.mark.parametrize("spinup", [10, 4])
    def test_late_lorenz_row_diverges_before_its_first_row(self, spinup):
        cfg = lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=spinup)
        params = [LorenzParams(rho=0.5), LorenzParams(), LorenzParams()]
        for firsts in ((0, 0, 0), (0, 20, 40)):
            with pytest.raises(DivergenceError, match="^solution diverged "
                               r"\(non-finite state\) at step 7 of trajectory 'b'$") as err:
                dynamics._lorenz_batch(params, late([cfg] * 3, firsts), ["a", "b", "c"])
            assert err.value.step == 7

    @pytest.mark.parametrize("spinup", [10, 3, 0])
    def test_late_ks_row_diverges_before_its_first_row(self, spinup):
        # The pinned schedule of TestIntegrateKS, beside a finite row.
        params = [KSParams(domain_length=2.0 * np.pi, grid_points=64, viscosity=mu)
                  for mu in (1.0, 0.01)]
        cfgs = [SimConfig(dt=0.05, total_steps=50, spinup_steps=spinup, seed=3)] * 2
        for firsts in ((0, 0), (0, 30)):
            with pytest.raises(DivergenceError, match="^solution diverged "
                               r"\(non-finite state\) at step 7 of trajectory 'b'$") as err:
                dynamics._ks_batch(params, late(cfgs, firsts), ["a", "b"])
            assert err.value.step == 7

    # Alone, (viscosity, seed) (0.01, 3) and (0.01, 6) diverge at step 7 and
    # (0.015, 3) at step 29, all inside the first chunk. A late row (first
    # recorded row 100) is judged every step, as a recorded one is; the
    # earliest step, then the lowest row, is named.
    @pytest.mark.parametrize("rows, expected", [
        (((0.015, 3, 100), (0.01, 3, 0)), "step 7 of trajectory 'b'"),
        (((0.01, 3, 0), (0.01, 6, 100)), "step 7 of trajectory 'a'"),
        (((0.01, 6, 100), (0.01, 3, 0)), "step 7 of trajectory 'a'"),
        (((0.015, 3, 0), (0.01, 3, 100)), "step 7 of trajectory 'b'"),
    ], ids=["recorded-earlier", "recorded-tie-lower", "late-tie-lower", "late-earlier"])
    def test_recorded_and_late_rows_name_the_earliest(self, rows, expected):
        params = [KSParams(domain_length=2.0 * np.pi, grid_points=64, viscosity=mu)
                  for mu, _, _ in rows]
        cfgs = [SimConfig(dt=0.05, total_steps=200, seed=seed) for _, seed, _ in rows]
        for firsts in ((0, 0), [first for _, _, first in rows]):
            with pytest.raises(DivergenceError, match=expected) as err:
                dynamics._ks_batch(params, late(cfgs, firsts), ["a", "b"])
            assert err.value.step == 7

    def test_rows_must_share_schedule(self):
        cfgs = [SimConfig(dt=dt, total_steps=10) for dt in (0.01, 0.02)]
        for batch, params in ((dynamics._lorenz_batch, LorenzParams()),
                              (dynamics._ks_batch, KSParams(grid_points=64))):
            with pytest.raises(ValueError, match="^batched trajectories must share dt$"):
                batch([params] * 2, cfgs)

    @pytest.mark.parametrize("batch, rows, single", [
        (dynamics._lorenz_batch, lambda t: lorenz_rows(t), integrate_lorenz),
        (dynamics._ks_batch, lambda t: ks_rows(t), integrate_ks),
    ], ids=["lorenz", "ks"])
    def test_rows_of_different_spinups_equal_single_runs(self, batch, rows, single):
        # Spin-ups ending before, at and after the first chunk edge.
        params, cfgs = rows((7, dynamics._CHUNK + 5, 3, 40))
        spinups = (0, dynamics._CHUNK, dynamics._CHUNK - 2, dynamics._CHUNK + 3)
        cfgs = [replace(c, spinup_steps=s) for c, s in zip(cfgs, spinups)]
        for p, c, row in zip(params, cfgs, batch(params, cfgs)):
            assert np.array_equal(row, single(p, c))


def in_workers_only(monkeypatch, action):
    """Make `_drive` call `action()` in forked workers instead of integrating."""
    parent, drive = os.getpid(), dynamics._drive

    def patched(*args):
        if os.getpid() != parent:
            action()
        return drive(*args)

    monkeypatch.setattr(dynamics, "_drive", patched)


def simulated_memory_error():
    raise MemoryError("simulated")


def ks_rows(lengths, spinup=20):
    params = [KSParams(domain_length=22.0, grid_points=64, viscosity=mu)
              for mu in (1.0, 0.8, 1.2, 0.9)[: len(lengths)]]
    cfgs = [SimConfig(dt=0.025, total_steps=t, spinup_steps=spinup, seed=s)
            for s, t in enumerate(lengths, 4)]
    return params, cfgs


def lorenz_rows(lengths, spinup=30):
    params = [LorenzParams(rho=rho) for rho in (28.0, 24.0, 35.0, 30.0)[: len(lengths)]]
    cfgs = [SimConfig(dt=0.01, total_steps=t, spinup_steps=spinup, seed=s)
            for s, t in enumerate(lengths, 1)]
    return params, cfgs


# Rows around `_CHUNK`, some of equal length.
SPLIT_LENGTHS = (dynamics._CHUNK + 5, 7, dynamics._CHUNK + 5, dynamics._CHUNK - 1)


def wide_ks_pair():
    """Two 256-point KS rows: wide enough that the batch splits."""
    params = [KSParams(grid_points=256, viscosity=mu) for mu in (1.0, 0.8)]
    cfgs = [SimConfig(dt=0.025, total_steps=t, spinup_steps=5, seed=s)
            for s, t in ((1, 40), (2, 30))]
    return dynamics._ks_batch(params, cfgs)


class TestWorkerSplit:
    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("batch, rows", [(dynamics._lorenz_batch, lorenz_rows),
                                             (dynamics._ks_batch, ks_rows)])
    def test_rows_equal_in_process_batch(self, monkeypatch, batch, rows, count):
        params, cfgs = rows(SPLIT_LENGTHS)
        alone = batch(params, cfgs)
        force_workers(monkeypatch, count)
        split = batch(params, cfgs)
        assert [r.shape for r in split] == [(t, r.shape[1]) for t, r in zip(SPLIT_LENGTHS, alone)]
        for a, b in zip(alone, split):
            assert np.array_equal(a, b)
        assert multiprocessing.active_children() == []

    def test_late_rows_equal_in_process_batch(self, monkeypatch):
        params, cfgs = ks_rows(SPLIT_LENGTHS)
        cfgs = late(cfgs, (dynamics._CHUNK, 0, 3, dynamics._CHUNK - 2))
        alone = dynamics._ks_batch(params, cfgs)
        force_workers(monkeypatch, 2)
        split = dynamics._ks_batch(params, cfgs)
        for a, b in zip(alone, split):
            assert np.array_equal(a, b)
        assert multiprocessing.active_children() == []

    def test_parent_group_stops_after_an_earlier_worker_divergence(self, monkeypatch):
        # Row 'b' diverges at step 7 in the worker. Row 'a', the parent's,
        # stays finite for 100 chunks, pausing at each so that the worker
        # reports first; it stops at a chunk edge after the report.
        total = 100 * dynamics._CHUNK
        params = [LorenzParams(rho=0.5), LorenzParams()]
        cfgs = [lorenz_cfg(dt=0.15, total_steps=t, spinup_steps=4) for t in (total, 50)]
        parent, drive, steps = os.getpid(), dynamics._drive, [0]

        def patched(step, *args):
            def counted(state):
                steps[0] += 1
                if steps[0] % dynamics._CHUNK == 0:
                    time.sleep(0.01)
                return step(state)

            return drive(counted if os.getpid() == parent else step, *args)

        with pytest.raises(DivergenceError) as alone:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        monkeypatch.setattr(dynamics, "_drive", patched)
        force_workers(monkeypatch, 2)
        with deadline(60), pytest.raises(DivergenceError) as split:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        assert str(split.value) == str(alone.value)
        assert split.value.step == 7 and "trajectory 'b'" in str(split.value)
        assert multiprocessing.active_children() == []
        assert 0 < steps[0] < total // 2

    def test_parent_group_stops_during_the_spinup(self, monkeypatch):
        # As above, but both rows are still in a spin-up of 100 chunks when
        # row 'b' diverges at step 7 in the worker.
        spinup = 100 * dynamics._CHUNK
        params = [LorenzParams(rho=0.5), LorenzParams()]
        cfgs = [lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=spinup)] * 2
        parent, drive, steps = os.getpid(), dynamics._drive, [0]

        def patched(step, *args):
            def counted(state):
                steps[0] += 1
                if steps[0] % dynamics._CHUNK == 0:
                    time.sleep(0.01)
                return step(state)

            return drive(counted if os.getpid() == parent else step, *args)

        with pytest.raises(DivergenceError) as alone:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        monkeypatch.setattr(dynamics, "_drive", patched)
        force_workers(monkeypatch, 2)
        with deadline(60), pytest.raises(DivergenceError) as split:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        assert str(split.value) == str(alone.value)
        assert split.value.step == 7 and "trajectory 'b'" in str(split.value)
        assert multiprocessing.active_children() == []
        assert 0 < steps[0] < spinup // 2

    def test_groups_keep_equal_lengths_together(self):
        assert dynamics._groups([10, 11, 10, 11, 11, 10], 2) == [[1, 3, 4], [0, 2, 5]]
        assert dynamics._groups([5, 7, 6], 3) == [[1], [2], [0]]
        assert dynamics._groups([5, 7, 6], 1) == [[0, 1, 2]]

    # Rows 0 and 1 stay finite and go to the parent; row 2 diverges in the
    # worker, during the spin-up (10) or while recording (4).
    @pytest.mark.parametrize("spinup", [10, 4])
    def test_worker_divergence_same_as_in_process(self, monkeypatch, spinup):
        cfg = lorenz_cfg(dt=0.15, total_steps=50, spinup_steps=spinup)
        params = [LorenzParams(rho=0.5), LorenzParams(rho=0.5), LorenzParams()]
        names = ["a", "b", "c"]
        with pytest.raises(DivergenceError) as alone:
            dynamics._lorenz_batch(params, [cfg] * 3, names)
        force_workers(monkeypatch, 2)
        with pytest.raises(DivergenceError) as split:
            dynamics._lorenz_batch(params, [cfg] * 3, names)
        assert split.value.step == alone.value.step == 7
        assert str(split.value) == str(alone.value)
        assert "trajectory 'c'" in str(split.value)

    # At dt 0.15 from (1, 1, 1), sigma 10/11/12/20 diverge at steps 7/6/6/5.
    # The longer row goes to the parent; a tie goes to the lower row.
    @pytest.mark.parametrize("sigmas, lengths, expected", [
        ((10.0, 20.0), (300, 300), "step 5 of trajectory 'b'"),
        ((12.0, 11.0), (300, 400), "step 6 of trajectory 'a'"),
        ((20.0, 10.0), (400, 300), "step 5 of trajectory 'a'"),
    ], ids=["worker-earlier", "tie-in-worker", "parent-earlier"])
    def test_earliest_divergence_over_groups(self, monkeypatch, sigmas, lengths, expected):
        params = [LorenzParams(sigma=sigma) for sigma in sigmas]
        cfgs = [lorenz_cfg(dt=0.15, total_steps=t, spinup_steps=4) for t in lengths]
        with pytest.raises(DivergenceError, match=expected) as alone:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        force_workers(monkeypatch, 2)
        with pytest.raises(DivergenceError, match=expected) as split:
            dynamics._lorenz_batch(params, cfgs, ["a", "b"])
        assert split.value.step == alone.value.step

    @pytest.mark.parametrize("action, status", [
        (simulated_memory_error, "exit status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exit status {-signal.SIGKILL}"),
    ], ids=["raises", "killed"])
    def test_failed_worker_is_named_error(self, monkeypatch, action, status):
        params, cfgs = ks_rows(SPLIT_LENGTHS)
        force_workers(monkeypatch, 2)
        in_workers_only(monkeypatch, action)
        with deadline(60), pytest.raises(CTFBenchError, match=status) as err:
            dynamics._ks_batch(params, cfgs, ["w", "x", "y", "z"])
        assert not isinstance(err.value, DivergenceError)
        assert "integration worker for trajectories 'x', 'z'" in str(err.value)

    def test_parent_failure_kills_and_reaps_workers(self, monkeypatch):
        parent, drive = os.getpid(), dynamics._drive

        def patched(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return drive(*args)

        forked, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(dynamics, "_drive", patched)
        monkeypatch.setattr(os, "fork", recording_fork)
        force_workers(monkeypatch, 3)
        params, cfgs = ks_rows(SPLIT_LENGTHS)
        with deadline(30), pytest.raises(KeyboardInterrupt):
            dynamics._ks_batch(params, cfgs)
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(pid, os.WNOHANG)

    def test_one_cpu_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        params = [KSParams(grid_points=256, viscosity=mu) for mu in (1.0, 0.8)]
        cfgs = [SimConfig(dt=0.025, total_steps=t, seed=s) for s, t in ((1, 3), (2, 2))]
        rows = dynamics._ks_batch(params, cfgs)
        for p, c, row in zip(params, cfgs, rows):
            assert np.array_equal(row, integrate_ks(p, c))

    def test_batch_in_pool_worker_equals_in_process(self, monkeypatch):
        # A Pool worker is daemonic and may not start processes of its own,
        # so there the batch integrates in that one process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert dynamics._workers(2, 256) == 2
        alone = wide_ks_pair()
        with deadline(120), multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply_async(wide_ks_pair).get(timeout=100)
        assert [r.shape for r in pooled] == [(40, 256), (30, 256)]
        for a, b in zip(alone, pooled):
            assert np.array_equal(a, b)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert dynamics._workers(6, 1024) == 3
        assert dynamics._workers(2, 1024) == 2
        assert dynamics._workers(6, 3) == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert dynamics._workers(6, 1024) == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        with monkeypatch.context() as daemonic:
            daemonic.setattr(multiprocessing.current_process(), "daemon", True)
            assert dynamics._workers(6, 1024) == 1
        assert dynamics._workers(6, 1024) == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert dynamics._workers(6, 1024) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert dynamics._workers(6, 1024) == 1


class TestMakeInitialCondition:
    def test_same_seed_bit_identical(self):
        a = make_initial_condition("seeded-random-smooth", 1024, 7)
        b = make_initial_condition("seeded-random-smooth", 1024, 7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_initial_condition("seeded-random-smooth", 64, 1)
        b = make_initial_condition("seeded-random-smooth", 64, 2)
        assert np.any(a != b)

    @pytest.mark.parametrize("n", [3, 64, 1024])
    def test_zero_mean(self, n):
        u = make_initial_condition("seeded-random-smooth", n, 12)
        assert abs(u.mean()) <= 1e-12

    def test_order_one_amplitude(self):
        u = make_initial_condition("seeded-random-smooth", 512, 3)
        assert 0.05 < np.abs(u).max() < 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown initial-condition kind"):
            make_initial_condition("white-noise", 64, 0)


class TestParameterValidation:
    def test_ks_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            KSParams(grid_points=100)

    @pytest.mark.parametrize("n", [64.0, np.float64(64), "64"],
                             ids=["float", "numpy-float", "str"])
    def test_ks_grid_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^grid_points must be a power of two >= 8$"):
            KSParams(grid_points=n)

    def test_ks_grid_minimum(self):
        with pytest.raises(ValueError, match="power of two"):
            KSParams(grid_points=4)

    def test_ks_viscosity_positive(self):
        with pytest.raises(ValueError):
            KSParams(viscosity=0.0)

    def test_lorenz_params_validated(self):
        with pytest.raises(ValueError):
            LorenzParams(sigma=-1.0)
        with pytest.raises(ValueError):
            LorenzParams(beta=0.0)
        with pytest.raises(ValueError):
            LorenzParams(rho=float("nan"))
        assert LorenzParams(rho=-2**63 - 1).rho == -2**63 - 1  # beyond int64, not NaN

    def test_sim_config_validated(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, total_steps=10)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, total_steps=0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, total_steps=1, spinup_steps=-1)

    # Each refused when the configuration is made, the field named first.
    @pytest.mark.parametrize("kw, why", [
        ({"dt": np.inf}, "dt: must be positive and finite"),
        ({"dt": np.nan}, "dt: must be positive and finite"),
        ({"total_steps": 2.0}, "total_steps: must be an integer >= 1"),
        ({"spinup_steps": 1.5}, "spinup_steps: must be an integer >= 0"),
        ({"seed": 1.5}, "seed: must be an integer >= 0"),
        ({"seed": -1}, "seed: must be an integer >= 0"),
    ], ids=["dt-inf", "dt-nan", "total-steps-float", "spinup-float", "seed-float",
            "seed-negative"])
    def test_sim_config_fault_names_its_field(self, kw, why):
        with pytest.raises(ValueError, match=f"^{why}$"):
            SimConfig(**{"dt": 0.01, "total_steps": 10, **kw})

    def test_sim_config_takes_numpy_integers(self):
        cfg = SimConfig(dt=0.01, total_steps=np.int64(3), spinup_steps=np.int32(2))
        assert integrate_lorenz(LorenzParams(), cfg).shape == (3, 3)

    @pytest.mark.parametrize("field", ["viscosity", "domain_length"])
    def test_ks_params_must_be_finite(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            KSParams(**{field: np.inf})

    # An integer beyond the largest float is refused by name when the
    # parameters are made, not by an OverflowError in the integrator.
    @pytest.mark.parametrize("make, why", [
        (lambda v: LorenzParams(sigma=v), "sigma must be positive and finite"),
        (lambda v: LorenzParams(rho=v), "rho must be finite"),
        (lambda v: LorenzParams(rho=-v), "rho must be finite"),
        (lambda v: LorenzParams(beta=v), "beta must be positive and finite"),
        (lambda v: KSParams(domain_length=v), "domain_length must be positive and finite"),
        (lambda v: KSParams(viscosity=v), "viscosity must be positive and finite"),
        (lambda v: SimConfig(dt=v, total_steps=10), "dt: must be positive and finite"),
    ], ids=["sigma", "rho", "rho-negative", "beta", "domain_length", "viscosity", "dt"])
    def test_integer_beyond_the_largest_float_refused(self, make, why):
        with pytest.raises(ValueError, match=f"^{why}$"):
            make(10**400)


def lorenz_start(p, c):
    return dynamics._lorenz_step(p, c.dt), tuple(c.initial_condition.tolist()), lambda s: s


def ks_start(p, c):
    stepper = dynamics._ETDRK4([p], c.dt)
    ic = make_initial_condition(dynamics.RANDOM_SMOOTH, p.grid_points, c.seed)
    return stepper.step, stepper.state(np.fft.rfft(ic[None])), lambda s: s[1][0]


def rows_alone(start, params, cfgs):
    """Each row stepped alone from `start(params, cfg)`, a (step, state,
    view) triple, and judged after every step: the rows after each spin-up,
    or the (step, row) of the earliest divergence, the lowest row first."""
    rows, bad = [], []
    for b, (p, c) in enumerate(zip(params, cfgs)):
        step, state, view = start(p, c)
        kept = []
        with np.errstate(all="ignore"):
            for i in range(c.spinup_steps + c.total_steps):
                if i:
                    state = step(state)
                if not np.isfinite(view(state)).all():
                    bad.append((i, b))
                    break
                if i >= c.spinup_steps:
                    kept.append(view(state))
        rows.append(np.array(kept))
    return min(bad) if bad else rows


@st.composite
def batches(draw, system):
    """A random batch of one to three `system` rows, each with its own
    spin-up, and 1 or 2 workers. Lorenz sigma 1000 diverges within a few steps at dt 0.01 and
    after about 260 at dt 0.0028; sigma 10 diverges at dt 0.15 unless rho is
    0.5. KS viscosity 0.015 diverges within 30 steps, 0.02 at step 300 for
    seed 4 and 1.0 never."""
    count = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.0028, 0.01, 0.15])) if system == "lorenz" else 0.05
    params, cfgs = [], []
    for _ in range(count):
        spinup = draw(st.integers(0, 10) | st.integers(0, 2 * dynamics._CHUNK + 10))
        total = draw(st.integers(1, 10) | st.integers(1, 2 * dynamics._CHUNK + 10))
        if system == "lorenz":
            params.append(LorenzParams(sigma=draw(st.sampled_from([10.0, 1000.0])),
                                       rho=draw(st.sampled_from([0.5, 28.0]))))
            ic = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
            cfgs.append(lorenz_cfg(dt=dt, total_steps=total, spinup_steps=spinup,
                                   initial_condition=ic))
        else:
            params.append(KSParams(domain_length=2.0 * np.pi, grid_points=64,
                                   viscosity=draw(st.sampled_from([1.0, 0.02, 0.015]))))
            cfgs.append(SimConfig(dt=dt, total_steps=total, spinup_steps=spinup,
                                  seed=draw(st.integers(0, 4))))
    return params, cfgs, draw(st.sampled_from([1, 2]))


@pytest.mark.parametrize("system, batch, start", [
    ("lorenz", dynamics._lorenz_batch, lorenz_start),
    ("ks", dynamics._ks_batch, ks_start),
], ids=["lorenz", "ks"])
def test_batch_equals_rows_stepped_alone(system, batch, start):
    @given(batches(system))
    @settings(max_examples=60, deadline=None)
    def check(drawn):
        params, cfgs, workers = drawn
        names = [f"r{b}" for b in range(len(params))]
        want = rows_alone(start, params, cfgs)
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, workers)
            if isinstance(want, tuple):
                step, row = want
                with pytest.raises(DivergenceError,
                                   match=f"at step {step} of trajectory 'r{row}'$"):
                    batch(params, cfgs, names)
            else:
                got = batch(params, cfgs, names)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    check()
