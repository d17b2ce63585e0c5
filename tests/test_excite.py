"""Chirp generation and record capture."""

import math

import numpy as np
import pytest

from htfid import (
    AliasingError,
    ChirpPlan,
    InvalidInputError,
    chirp_value,
    clock_phases,
    run_experiments,
)
from htfid.errors import PerturbationSizeWarning
from htfid.excite import check_nyquist
from htfid.sim import integrate

from helpers import records_with_velocity, sample_buffer


def test_chirp_formula():
    plan = ChirpPlan()
    dt = 1e-3
    t = np.arange(30_000) * dt
    u = chirp_value(plan, t)
    rate = (plan.f_hi - plan.f_lo) / plan.segment_duration
    expect = plan.amplitude * np.sin(
        math.pi * rate * t**2 + 2.0 * math.pi * plan.f_lo * t
    )
    assert np.array_equal(u, expect)


def test_chirp_sweep_endpoints():
    plan = ChirpPlan()
    # instantaneous frequency rate*t + f_lo sweeps 0 -> 7 Hz
    assert chirp_value(plan, 0.0) == 0.0
    rate = plan.f_hi / plan.segment_duration
    t = np.linspace(29.0, 30.0, 5)
    vals = plan.amplitude * np.sin(math.pi * rate * t**2)
    assert np.allclose([chirp_value(plan, ti) for ti in t], vals, rtol=0, atol=1e-15)


def test_chirp_energy_is_in_band():
    u = chirp_value(ChirpPlan(), 1e-3 * np.arange(30_000))
    U = np.abs(np.fft.fft(u) / u.size)
    f = np.fft.fftfreq(u.size, 1e-3)
    band = (f > 0) & (f <= 7.0)
    above = f > 8.0
    floor = np.median(U[band])
    assert np.max(U[above]) < 0.1 * floor
    # every in-band bin is usable by the estimator's excitation screen
    assert np.min(U[band]) > 0.1 * floor


def test_chirp_aliasing_guard():
    with pytest.raises(AliasingError):
        check_nyquist(ChirpPlan(), 0.1)  # Nyquist 5 Hz < 7 Hz sweep top


def test_plan_validation():
    with pytest.raises(InvalidInputError):
        ChirpPlan(amplitude=-1e-3)
    with pytest.raises(InvalidInputError):
        ChirpPlan(f_lo=5.0, f_hi=2.0)
    with pytest.raises(InvalidInputError):
        ChirpPlan(segment_duration=0.0)
    with pytest.raises(InvalidInputError):
        ChirpPlan(n_segments=0)
    # a fractional segment count used to construct and fail later in range()
    with pytest.raises(InvalidInputError, match="n_segments"):
        ChirpPlan(n_segments=2.5)
    # nan passed every comparison; the duration escaped as ValueError from steps_in
    with pytest.raises(InvalidInputError, match="amplitude"):
        ChirpPlan(amplitude=float("nan"))
    with pytest.raises(InvalidInputError, match="segment_duration"):
        ChirpPlan(segment_duration=float("nan"))
    # a fractional warm-up used to escape as numpy's TypeError
    for warmup in (-1, 1.5, True):
        with pytest.raises(InvalidInputError, match="warmup_periods"):
            ChirpPlan(warmup_periods=warmup)
    # amplitude 0 is a legal null experiment
    assert ChirpPlan(amplitude=0.0).amplitude == 0.0


def test_clock_phases_uniform():
    plan = ChirpPlan()
    phases = clock_phases(plan, 1.0)
    assert np.array_equal(phases, np.arange(9) / 9.0)


def test_records_shape_and_alignment(lab_records, lab_record_velocities, lab_model, lab_cycle):
    assert len(lab_records) == 9
    chirp = chirp_value(ChirpPlan(), lab_cycle.dt * np.arange(30_000))
    xi, xi_dot = lab_record_velocities
    for k, rec in enumerate(lab_records):
        # the records hold positions only; the batch run again with its
        # velocities stored gives the same positions, bit for bit
        assert rec.traj.xdot is None
        assert np.array_equal(rec.xi1, xi[k])
        assert rec.index == k
        assert rec.clock_phase == pytest.approx(k / 9.0, abs=1e-12)
        assert rec.traj.n_samples == 30000
        assert rec.traj.dt == lab_cycle.dt
        # the captured input is the chirp itself, aligned to the window
        # (equal up to the roundoff of folding absolute time mod 30 s)
        assert np.allclose(rec.traj.u, chirp, rtol=0, atol=1e-12)
        # the deviation sits on the orbit's clock: put back, the states
        # switch the damper twice a period, engaged for about the duty
        # (0.5117 to 0.5131 measured, against 0.5125)
        x_bar, v_bar = lab_cycle.state_at(rec.traj.times())
        on = lab_model.switching(rec.xi1 + x_bar, xi_dot[k] + v_bar) > 0.0
        assert np.count_nonzero(np.diff(on)) == 2 * 30
        assert abs(on.mean() - lab_cycle.duty) < 2e-3


def test_zero_amplitude_records_stay_on_orbit(lab_model, lab_cycle):
    plan = ChirpPlan(amplitude=0.0, n_segments=2)
    recs = run_experiments(lab_model, lab_cycle, plan)
    xi, xi_dot = records_with_velocity(lab_model, lab_cycle, plan)
    for rec, x, xdot in zip(recs, xi, xi_dot):
        assert np.array_equal(rec.traj.x, x)
        # deviations bounded by the orbit's own periodicity residual
        assert np.max(np.abs(rec.traj.x)) < 10.0 * lab_cycle.residual[0] + 1e-12
        assert np.max(np.abs(xdot)) < 10.0 * lab_cycle.residual[1] + 1e-12


def test_records_share_one_buffer_of_positions(lab_records):
    # The batch stores one row per record, its positions: no velocity row
    # (which no stage of `identify` reads) and no copy per record.
    buffer = sample_buffer(lab_records[0].xi1)
    assert all(sample_buffer(rec.xi1) is buffer for rec in lab_records)
    assert buffer.shape[0] == len(lab_records)
    assert buffer.size == len(lab_records) * buffer.shape[-1]


def test_small_signal_linearity(lab_model, lab_cycle):
    lo = run_experiments(lab_model, lab_cycle, ChirpPlan(n_segments=1))[0]
    hi = run_experiments(
        lab_model, lab_cycle, ChirpPlan(amplitude=0.008, n_segments=1)
    )[0]
    scaled = hi.traj.x / 2.0
    rel = np.max(np.abs(scaled - lo.traj.x)) / np.max(np.abs(lo.traj.x))
    assert rel < 0.05  # second-order hybrid effects stay below 5% at 0.004


def test_warmup_removes_wraparound_transient(lab_model, lab_cycle):
    cold, warm, warmer = (
        run_experiments(lab_model, lab_cycle, ChirpPlan(n_segments=1, warmup_periods=w))[0]
        for w in (0, 1, 2)
    )
    d01 = np.max(np.abs(cold.traj.x - warm.traj.x))
    d12 = np.max(np.abs(warm.traj.x - warmer.traj.x))
    # the cold record still carries the start-up transient; one full play
    # of the 30 s segment wipes it out to the Floquet decay
    assert d01 > 1e-6
    assert d12 < 1e-9


def test_large_amplitude_warns(lab_model, lab_cycle):
    with pytest.warns(PerturbationSizeWarning):
        plan = ChirpPlan(amplitude=0.5, n_segments=1, warmup_periods=0)
        run_experiments(lab_model, lab_cycle, plan)


def test_run_experiments_validation(lab_model, lab_cycle, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("a record was integrated")

    monkeypatch.setattr("htfid.excite.integrate", no_integration)
    # the warm-up reaches run_experiments through the plan, which refuses
    # it; a fractional one used to escape as numpy's TypeError
    for warmup in (-1, 1.5):
        with pytest.raises(InvalidInputError, match="warmup_periods"):
            run_experiments(lab_model, lab_cycle, ChirpPlan(warmup_periods=warmup))
    # a segment that is not a whole number of the cycle's 1 ms steps
    with pytest.raises(InvalidInputError, match="does not divide"):
        run_experiments(lab_model, lab_cycle, ChirpPlan(segment_duration=30.0005))


def test_run_experiments_checks_grid_before_integrating(lab_model, lab_cycle, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("a record was integrated")

    monkeypatch.setattr("htfid.excite.integrate", no_integration)
    # Nyquist at the cycle's 1 kHz is 500 Hz.
    with pytest.raises(AliasingError):
        run_experiments(lab_model, lab_cycle, ChirpPlan(f_hi=600.0))


def test_run_experiments_integrates_all_records_in_one_call(lab_model, lab_cycle, monkeypatch):
    # The records run in lockstep; a loop of one integration per record
    # would call `integrate` nine times.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return integrate(*args, **kwargs)

    monkeypatch.setattr("htfid.excite.integrate", counting)
    records = run_experiments(lab_model, lab_cycle, ChirpPlan())
    assert calls == [(9, 2)] and len(records) == 9
