"""DFT bookkeeping, the banded regressor, and the regularized solve."""

import cmath
import dataclasses
import gc
import json
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from htfid import (
    ChirpPlan,
    EstimationProblem,
    ExperimentRecord,
    IllConditionedError,
    InvalidInputError,
    NoDataError,
    Trajectory,
    build_regressor,
    cost,
    chirp_value,
    estimate_htf,
    run_experiments,
    second_difference,
    spectra,
)
from htfid.estimate import (
    _candidate_bins,
    _curvature_bands,
    _regressor_tensor,
    _solve_orders,
    median,
)

from helpers import relerr, sample_buffer


def lti_frf(w):
    """Stable second-order reference plant used for synthetic records."""
    return 1.0 / (200.0 - w**2 + 0.6j * w)


def make_record(u, x, clock_phase, dt=1e-3, index=0):
    zeros = np.zeros_like(u)
    traj = Trajectory(dt=dt, t0=0.0, x=x, xdot=zeros, u=u)
    return ExperimentRecord(index=index, clock_phase=clock_phase, traj=traj)


def lti_chirp_spectra(n_records=9):
    """Chirp records passed through the LTI reference plant exactly.

    The response is synthesized in the frequency domain, i.e. as the
    periodic steady state of the repeated chirp -- the same structure
    run_experiments produces after its warm-up play.
    """
    dt = 1e-3
    u = chirp_value(ChirpPlan(), dt * np.arange(30_000))
    freq = 2.0 * math.pi * np.fft.fftfreq(u.size, dt)
    x = np.fft.ifft(lti_frf(freq) * np.fft.fft(u)).real
    return spectra([make_record(u, x, k / n_records, dt, index=k) for k in range(n_records)])


def flat_spectrum_spectra():
    """Three short records with a perfectly flat band spectrum."""
    n, dt = 3000, 1e-3
    U = np.zeros(n, dtype=complex)
    for q in range(1, 31):  # (0, 10] Hz at 1/3 Hz spacing
        U[q] = 1.0 - 0.5j
        U[n - q] = np.conj(U[q])
    u = (np.fft.ifft(U) * n).real
    freq = 2.0 * math.pi * np.fft.fftfreq(n, dt)
    x = (np.fft.ifft(lti_frf(freq) * U) * n).real
    return spectra([make_record(u, x, k / 3.0, dt, index=k) for k in range(3)])


# ---------------------------------------------------------------- spectra


def test_spectra_sinusoid_lands_in_one_bin():
    n, dt = 3000, 1e-3
    t = np.arange(n) * dt
    u = np.sin(2.0 * math.pi * 2.0 * t)  # bin 6 of a 3 s record
    (rec,) = spectra([make_record(u, np.zeros(n), 0.0, dt)])
    # one-sided: bins 0 .. n/2 are stored, bin -6 is the conjugate of bin 6
    assert rec.n_bins == n and rec.U.shape == (n // 2 + 1,)
    assert abs(rec.U[6] - (-0.5j)) < 1e-12
    off = np.abs(np.delete(rec.U, 6))
    assert np.max(off) < 1e-12


def test_spectra_parseval(lab_records, lab_spectra):
    # with the 1/n normalization the identity picks up the duration
    u = lab_records[0].traj.u
    rec = lab_spectra[0]
    # one-sided: each interior bin stands for itself and its negative twin;
    # bin 0 and (n even) the Nyquist bin have none
    twice = np.full(rec.U.size, 2.0)
    twice[0] = 1.0
    if rec.n_bins % 2 == 0:
        twice[-1] = 1.0
    lhs = float(np.sum(u**2) * 1e-3)
    rhs = rec.duration * float(np.sum(twice * np.abs(rec.U) ** 2))
    assert abs(lhs - rhs) / lhs < 1e-9


def test_spectra_grid_properties(lab_spectra):
    rec = lab_spectra[0]
    assert rec.n_bins == 30000
    assert rec.bin_spacing == pytest.approx(2.0 * math.pi / 30.0, rel=1e-12)
    assert rec.duration == pytest.approx(30.0, rel=1e-12)


def test_spectra_rejects_nonfinite():
    u = np.ones(100)
    x = np.ones(100)
    x[3] = np.nan
    with pytest.raises(InvalidInputError):
        spectra([make_record(u, x, 0.0)])


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_spectra_rejects_a_bad_step(dt):
    # dt = 0 used to escape as ZeroDivisionError, and dt < 0 or nan gave
    # a negative or nan bin grid
    u = np.sin(np.arange(100.0))
    with pytest.raises(InvalidInputError, match="step dt"):
        spectra([make_record(u, u, 0.0, dt)])


def test_spectra_batch_equals_each_record_alone(lab_records, lab_spectra):
    for rec, spec in zip(lab_records, lab_spectra, strict=True):
        n = rec.u.size
        assert spec.n_bins == n
        assert np.array_equal(spec.U, np.fft.rfft(rec.u) / n)
        assert np.array_equal(spec.Y, np.fft.rfft(rec.xi1) / n)
        assert np.array_equal(spec.freq_grid, 2.0 * math.pi * np.fft.rfftfreq(n, d=rec.dt))
        assert spec.clock_phase == rec.clock_phase


def test_lab_spectra_share_one_input_and_grid(lab_spectra):
    first = lab_spectra[0]
    for spec in lab_spectra[1:]:
        assert np.shares_memory(spec.U, first.U)
        assert np.shares_memory(spec.freq_grid, first.freq_grid)
    for i, spec in enumerate(lab_spectra):
        for other in lab_spectra[i + 1 :]:
            assert not np.shares_memory(spec.Y, other.Y)
    # a shared array is read-only, so no record can change another's
    assert not first.U.flags.writeable and not first.freq_grid.flags.writeable


def test_spectra_different_inputs_get_their_own_transform():
    n, dt = 200, 1e-3
    t = np.arange(n) * dt
    u_a, u_b = np.sin(2.0 * math.pi * 5.0 * t), np.cos(2.0 * math.pi * 5.0 * t)
    x = np.zeros(n)
    a, b, a_again, a_slow, a_short = spectra(
        [
            make_record(u_a, x, 0.0, dt),
            make_record(u_b, x, 0.1, dt),
            make_record(u_a.copy(), x, 0.2, dt),  # equal samples, other buffer
            make_record(u_a, x, 0.3, 2.0 * dt),
            make_record(u_a[:-1], x[:-1], 0.4, dt),
        ]
    )
    assert a_again.U is a.U and a_again.freq_grid is a.freq_grid
    for other in (b, a_slow, a_short):
        assert not np.shares_memory(other.U, a.U)
        assert not np.shares_memory(other.freq_grid, a.freq_grid)
    assert np.array_equal(b.U, np.fft.rfft(u_b) / n)
    assert np.array_equal(b.freq_grid, a.freq_grid)
    assert np.array_equal(a_slow.freq_grid, a.freq_grid / 2.0)
    assert np.array_equal(a_short.U, np.fft.rfft(u_a[:-1]) / (n - 1))
    assert (a.n_bins, a_short.n_bins) == (n, n - 1)


def test_spectrum_record_refuses_arrays_not_one_sided(lab_spectra):
    # two-sided arrays of the old layout would index the wrong bins
    rec = lab_spectra[0]
    two_sided = np.zeros(rec.n_bins, dtype=complex)
    with pytest.raises(InvalidInputError, match="stores bins 0..15000"):
        dataclasses.replace(rec, U=two_sided, Y=two_sided)
    with pytest.raises(InvalidInputError, match="stores bins"):
        dataclasses.replace(rec, n_bins=rec.n_bins + 2)


def test_spectra_keep_no_reference_to_the_records(lab_model, lab_cycle):
    records = run_experiments(lab_model, lab_cycle, ChirpPlan(segment_duration=2.0, n_segments=3))
    samples = [weakref.ref(sample_buffer(a)) for a in (records[0].xi1, records[0].u)]
    specs = spectra(records)
    del records
    gc.collect()
    assert all(ref() is None for ref in samples)
    assert len(specs) == 3


# ------------------------------------------------------------- regressor


def test_problem_validation(lab_spectra):
    with pytest.raises(InvalidInputError, match="no records"):
        EstimationProblem(records=[], n_harmonics=1, pump=1.0)
    with pytest.raises(InvalidInputError):
        EstimationProblem(records=lab_spectra[:6], n_harmonics=3, pump=2 * math.pi)
    with pytest.raises(InvalidInputError):
        EstimationProblem(records=lab_spectra, n_harmonics=3, pump=-1.0)
    with pytest.raises(InvalidInputError):
        EstimationProblem(
            records=lab_spectra, n_harmonics=3, pump=2 * math.pi, alpha=-1.0
        )
    # pump period not commensurate with the record duration
    with pytest.raises(InvalidInputError):
        EstimationProblem(records=lab_spectra, n_harmonics=3, pump=2.0)
    # harmonic shifts would run past the Nyquist frequency
    with pytest.raises(InvalidInputError):
        EstimationProblem(
            records=lab_spectra,
            n_harmonics=3,
            pump=2 * math.pi,
            band_hz=(0.0, 499.0),
        )
    # settings that escaped untyped, ran silently or failed later as a
    # numerical error
    settings = dict(records=lab_spectra, n_harmonics=3, pump=2 * math.pi)
    for bad in (
        {"pump": math.nan},
        {"pump": math.inf},
        {"n_harmonics": 1.5},
        {"n_harmonics": True},
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"band_hz": (1.5, 0.5)},
        {"band_hz": (0.0, math.nan)},
        {"band_hz": (-1.0, 1.0)},
        {"min_excitation": math.nan},
        {"min_excitation": -1e-3},
    ):
        with pytest.raises(InvalidInputError):
            EstimationProblem(**{**settings, **bad})
    with pytest.raises(InvalidInputError, match="clock_phase"):
        dataclasses.replace(lab_spectra[0], clock_phase=math.nan)


def test_regressor_shapes_and_zero_record(lab_spectra):
    problem = EstimationProblem(records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi)
    Phi, y = build_regressor(problem, 2.0 * math.pi / 30.0 * 100)
    assert Phi.shape == (9, 7) and y.shape == (9,)
    # at bin 100 every shifted line is in band, so the rows are dense
    assert np.all(np.abs(Phi) > 0)
    # records with no input energy contribute all-zero rows (one silent
    # record among others no longer shares their input: see below)
    blank = np.zeros_like(lab_spectra[0].U)
    silent = [dataclasses.replace(rec, U=blank) for rec in lab_spectra]
    Phi, _ = build_regressor(
        dataclasses.replace(problem, records=silent), 2.0 * math.pi / 30.0 * 100
    )
    assert not Phi.any()


def test_problem_refuses_records_that_break_orthogonality(lab_spectra):
    # The per-order solve needs every bin's Gram diagonal: one shared input
    # and start phases T/N apart, one record in each slot.
    settings = dict(n_harmonics=3, pump=2.0 * math.pi)
    louder = dataclasses.replace(lab_spectra[4], U=2.0 * lab_spectra[4].U)
    moved = dataclasses.replace(lab_spectra[4], clock_phase=lab_spectra[4].clock_phase + 1e-3)
    doubled = dataclasses.replace(lab_spectra[4], clock_phase=lab_spectra[5].clock_phase)
    far = dataclasses.replace(lab_spectra[4], clock_phase=-1e308)  # no overflow escapes
    at_zero = [dataclasses.replace(rec, clock_phase=0.0) for rec in lab_spectra]
    for records, match in (
        (lab_spectra[:4] + [louder] + lab_spectra[5:], "one input spectrum"),
        (lab_spectra[:4] + [moved] + lab_spectra[5:], "start phases"),
        (lab_spectra[:4] + [doubled] + lab_spectra[5:], "start phases"),
        (lab_spectra[:4] + [far] + lab_spectra[5:], "start phases"),
        (at_zero, "start phases"),
    ):
        with pytest.raises(InvalidInputError, match=match):
            EstimationProblem(records=records, **settings)
    # the slots, not the order of the records, a common offset and
    # rounding are free: an equal copy of U, records reversed, every
    # phase moved by 0.3 of a period plus a whole one, and 1e-12 of
    # rounding all pass
    copy = dataclasses.replace(lab_spectra[2], U=lab_spectra[2].U.copy())
    EstimationProblem(records=lab_spectra[:2] + [copy] + lab_spectra[3:], **settings)
    EstimationProblem(records=lab_spectra[::-1], **settings)
    shifted = [
        dataclasses.replace(rec, clock_phase=rec.clock_phase + 1.3 + 1e-12 * k)
        for k, rec in enumerate(lab_spectra)
    ]
    EstimationProblem(records=shifted, **settings)


def test_regressor_snaps_to_nearest_bin(lab_spectra):
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi
    )
    spacing = lab_spectra[0].bin_spacing
    Phi_a, y_a = build_regressor(problem, 100.0 * spacing)
    Phi_b, y_b = build_regressor(problem, 100.4 * spacing)
    assert np.array_equal(Phi_a, Phi_b)
    assert np.array_equal(y_a, y_b)


@pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan, 1e6, 15_000.6, -15_001])
def test_regressor_refuses_frequency_off_the_records_bins(lab_problem, omega):
    # 30 000 samples have signed bins up to 15 000 (omega = 15 000 * 2 pi/30
    # rad/s); 1e6 rad/s is far past them.  The finite cases are in bins.
    if math.isfinite(omega) and abs(omega) < 1e5:
        omega *= lab_problem.records[0].bin_spacing
    with pytest.raises(InvalidInputError, match="outside the records' bins"):
        build_regressor(lab_problem, omega)


def test_regressor_takes_the_last_bin(lab_problem):
    # bin +-15 000 of 30 000 samples is the stored Nyquist bin, the last one
    spacing = lab_problem.records[0].bin_spacing
    nyquist = np.array([rec.Y[-1] for rec in lab_problem.records])
    for q, want in ((15_000, nyquist), (-15_000, nyquist.conj()), (15_000.4, nyquist)):
        Phi, y = build_regressor(lab_problem, q * spacing)
        assert Phi.shape == (9, 2 * lab_problem.n_harmonics + 1) and y.shape == (9,)
        assert np.array_equal(y, want)


def test_regressor_matches_scalar_reference(lab_problem):
    # Entries formed one at a time with Python complex arithmetic, straight
    # from the row equation and the band test; the tensor must agree exactly.
    rec0 = lab_problem.records[0]
    spacing, n_fft = rec0.bin_spacing, rec0.n_bins

    def signed(stored, q):
        # the one-sided spectrum at signed bin q: a negative bin conjugates
        k = q % n_fft
        return complex(stored[k]) if k <= n_fft // 2 else complex(stored[n_fft - k]).conjugate()

    lo, hi = 2.0 * math.pi * 0.0, 2.0 * math.pi * 7.0
    for q in (-177, -40, 1, 40, 100, 205):
        Phi, y = build_regressor(lab_problem, q * spacing)
        for r, rec in enumerate(lab_problem.records):
            assert y[r] == signed(rec.Y, q)
            for col, n in enumerate(range(-3, 4)):
                shift = q - n * lab_problem.pump_bins
                excited = shift != 0 and lo < abs(shift) * spacing <= hi + 0.5 * spacing
                mod = cmath.exp(1j * n * lab_problem.pump * rec.clock_phase)
                assert Phi[r, col] == (mod * signed(rec.U, shift) if excited else 0.0)


def test_one_sided_regressor_matches_two_sided_dft(lab_records, lab_problem):
    # The same tensor built from the records' two-sided np.fft.fft spectra;
    # bins -400 .. 399 shift to negative bins on every harmonic column.
    n_fft, pump_bins = lab_problem.records[0].n_bins, lab_problem.pump_bins
    U = [np.fft.fft(rec.u) / n_fft for rec in lab_records]
    Y = [np.fft.fft(rec.xi1) / n_fft for rec in lab_records]
    orders = np.arange(-3, 4)
    mod = np.exp(1j * np.outer([rec.clock_phase for rec in lab_records], orders) * lab_problem.pump)
    q = np.arange(-400, 400)
    shift = q[:, None] - orders * pump_bins
    assert (shift < 0).any(axis=0).all()
    Phi, y, mask = _regressor_tensor(lab_problem, q)
    Phi_ref = np.stack([U_r[shift % n_fft] for U_r in U], axis=1) * mod * mask[:, None, :]
    y_ref = np.stack([Y_r[q % n_fft] for Y_r in Y], axis=1)

    def off(a, ref):
        # rfft and fft round differently: compare against the largest entry
        return np.max(np.abs(a - ref)) / np.max(np.abs(ref))

    assert off(Phi, Phi_ref) <= 1e-13 and off(y, y_ref) <= 1e-13
    spacing = lab_problem.records[0].bin_spacing
    for b in (223, 300, 395):  # signed bins -177, -100, -5
        Phi_b, y_b = build_regressor(lab_problem, q[b] * spacing)
        assert off(Phi_b, Phi_ref[b]) <= 1e-13 and off(y_b, y_ref[b]) <= 1e-13


@pytest.mark.parametrize(
    "band_hz", [(0.0, 7.0), (11 / 30, 7.0), (0.0, 6.75), (22 / 30, 202.5 / 30)]
)
def test_candidate_bins_are_the_regressors_in_band_bins(lab_spectra, band_hz):
    # band edges on a bin (11/30 Hz) or half a bin above one (6.75 Hz): the
    # estimation grid and the regressor mask of the unshifted column agree
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=3, pump=2.0 * math.pi, band_hz=band_hz
    )
    q = np.arange(1, 400)
    _, _, mask = _regressor_tensor(problem, q)
    assert np.array_equal(_candidate_bins(problem), q[mask[:, 3]])


@pytest.mark.parametrize("shape, axis", [((7,), -1), ((8,), -1), ((9, 5), 0), ((4, 6), 1)])
@pytest.mark.parametrize("with_nan", [False, True])
def test_median_is_numpys_median(shape, axis, with_nan):
    values = np.random.default_rng(3).standard_normal(shape)
    values.flat[1] = values.flat[0]  # a tie
    if with_nan:
        values.flat[-2] = np.nan
    want = np.median(values, axis=axis)
    got = median(values, axis=axis)
    assert got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_per_bin_solve_recovers_lti_plant():
    specs = lti_chirp_spectra()
    problem = EstimationProblem(
        records=specs, n_harmonics=1, pump=2.0 * math.pi, alpha=0.0
    )
    spacing = specs[0].bin_spacing
    for q in (45, 100, 160):
        Phi, y = build_regressor(problem, q * spacing)
        g, *_ = np.linalg.lstsq(Phi, y, rcond=None)
        assert abs(g[1] - lti_frf(q * spacing)) / abs(g[1]) < 1e-12
        assert abs(g[0]) < 1e-12 * abs(g[1])
        assert abs(g[2]) < 1e-12 * abs(g[1])


def test_second_difference_stencil():
    d2 = second_difference(5)
    ramp = np.arange(5, dtype=float)
    assert np.array_equal(d2 @ ramp, np.zeros(3))
    assert np.array_equal(second_difference(3) @ np.array([1.0, 2.0, 4.0]), [1.0])
    g = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 0.1])
    direct = sum(
        (g[i + 1] - 2.0 * g[i] + g[i - 1]) ** 2 for i in range(1, 5)
    )
    assert float(np.sum((second_difference(6) @ g) ** 2)) == pytest.approx(
        direct, rel=1e-14
    )
    with pytest.raises(InvalidInputError):
        second_difference(2)


@pytest.mark.parametrize("n_points", range(3, 13))
def test_curvature_gram_is_the_dense_product(n_points):
    # the three bands are the diagonals of D2^T D2, bit for bit, and the
    # entries past each diagonal's end are zero
    d2 = second_difference(n_points)
    gram = d2.T @ d2
    bands = _curvature_bands(n_points)
    assert bands.dtype == np.float64 and bands.shape == (3, n_points)
    for lag in range(3):
        assert bands[lag, : n_points - lag].tobytes() == gram.diagonal(lag).tobytes()
        assert not np.any(bands[lag, n_points - lag :])
    assert not np.any(np.triu(gram, 3))  # so the bands are all of it


# ------------------------------------------------------------- estimator


def test_uncoupled_estimate_is_per_bin_least_squares():
    specs = flat_spectrum_spectra()
    problem = EstimationProblem(
        records=specs,
        n_harmonics=1,
        pump=2.0 * math.pi,
        alpha=0.0,
        band_hz=(0.0, 10.0),
    )
    est = estimate_htf(problem)
    for i, w in enumerate(est.omega_grid):
        Phi, y = build_regressor(problem, float(w))
        g, *_ = np.linalg.lstsq(Phi, y, rcond=None)
        # b/a on orthogonal columns, so equal to rounding (7.9e-16 measured)
        got = np.array([est.harmonics[n][i] for n in (-1, 0, 1)])
        assert np.max(np.abs(got - g)) <= 1e-14 * np.max(np.abs(g))
    # flat equal-magnitude spectra make the per-bin systems unitary
    assert est.diagnostics["cond_estimate"] == pytest.approx(1.0, abs=1e-9)
    assert np.max(relerr(est.harmonics[0], lti_frf(est.omega_grid))) < 1e-12
    for n in (-1, 1):
        assert np.max(np.abs(est.harmonics[n])) < 1e-12
        # bins whose shifted line leaves the band are exactly zero
        dead = ~est.excitation_mask[n]
        assert dead.any()
        assert not est.harmonics[n][dead].any()


def test_estimate_lti_chirp_with_tiny_alpha():
    specs = lti_chirp_spectra()
    problem = EstimationProblem(
        records=specs, n_harmonics=1, pump=2.0 * math.pi, alpha=1e-12
    )
    est = estimate_htf(problem)
    live = est.excitation_mask[0]
    err = relerr(est.harmonics[0][live], lti_frf(est.omega_grid[live]))
    assert np.max(err) < 1e-3
    for n in (-1, 1):
        assert np.max(np.abs(est.harmonics[n])) < 1e-10


def test_estimate_conjugate_pairing(lab_problem):
    # real signals force g(-w) = conj(g(+w)) with harmonic order reversed
    uncoupled = dataclasses.replace(lab_problem, alpha=0.0)
    spacing = lab_problem.records[0].bin_spacing
    for q in (40, 100, 177):
        gp, *_ = np.linalg.lstsq(
            *build_regressor(uncoupled, q * spacing), rcond=None
        )
        gm, *_ = np.linalg.lstsq(
            *build_regressor(uncoupled, -q * spacing), rcond=None
        )
        assert np.max(np.abs(gm - np.conj(gp[::-1]))) < 1e-10 * np.max(np.abs(gp))


def test_estimate_alpha_continuity(lab_problem, lab_estimate):
    halved = estimate_htf(dataclasses.replace(lab_problem, alpha=0.5e-8))
    num, den = 0.0, 0.0
    for n in lab_estimate.harmonics:
        num += float(np.sum(np.abs(halved.harmonics[n] - lab_estimate.harmonics[n]) ** 2))
        den += float(np.sum(np.abs(lab_estimate.harmonics[n]) ** 2))
    rel = math.sqrt(num / den)
    assert 0.0 < rel < 0.10


def test_estimate_beats_theory_on_its_own_cost(
    lab_problem, lab_estimate, lab_theory_on_estimate_grid
):
    # the estimator minimizes the data misfit, so no other candidate --
    # including the true linearization -- may score better
    assert cost(lab_problem, lab_estimate) <= cost(
        lab_problem, lab_theory_on_estimate_grid
    )


def test_cost_reproduces_estimate_diagnostics(lab_problem, lab_estimate):
    assert cost(lab_problem, lab_estimate) == lab_estimate.diagnostics["cost"]


def test_excitation_mask_counts(lab_estimate):
    counts = {n: int(np.sum(m)) for n, m in lab_estimate.excitation_mask.items()}
    # 210 band bins; shifting by n*30 bins loses the tail (or just the
    # bin that lands on DC for upshifts)
    assert counts == {-3: 120, -2: 150, -1: 180, 0: 210, 1: 209, 2: 209, 3: 209}


def test_estimate_deterministic(lab_problem, lab_estimate):
    again = estimate_htf(lab_problem)
    for n in lab_estimate.harmonics:
        assert np.array_equal(again.harmonics[n], lab_estimate.harmonics[n])
    assert again.diagnostics == lab_estimate.diagnostics


def test_estimate_diagnostics_content(lab_estimate):
    d = lab_estimate.diagnostics
    assert d["n_records"] == 9 and d["n_bins"] == 210 and d["n_harmonics"] == 3
    assert d["cost"] == pytest.approx(d["data_residual"] + d["penalty"], rel=1e-12)
    assert np.isfinite(d["cond_estimate"])
    # one condition and one residual per order n = -3..3; the largest
    # condition is the figure, and the orders' residuals are part of the
    # whole (the rest lies in the record classes no order occupies)
    assert len(d["cond_by_order"]) == len(d["data_residual_by_order"]) == 7
    assert d["cond_estimate"] == max(d["cond_by_order"])
    assert all(0.0 < value < 1e14 for value in d["cond_by_order"])
    assert 0.0 < sum(d["data_residual_by_order"]) < d["data_residual"]


def test_order_residuals_split_the_data_residual(lab_problem):
    # With nine records at phases k/9 the nine residue classes of the
    # orders take the whole residual apart: estimating orders -4..4 leaves
    # nothing outside them (Parseval across the records).
    d = estimate_htf(dataclasses.replace(lab_problem, n_harmonics=4)).diagnostics
    assert sum(d["data_residual_by_order"]) == pytest.approx(d["data_residual"], rel=1e-12)


def test_unexcited_order_keeps_the_diagnostics_finite(lab_spectra):
    # (0, 0.5] Hz at alpha = 0: order -1 shifts every line out of the band,
    # so it solves to zero, with condition 0 rather than infinity (the
    # diagnostics are written as JSON, which has no infinity)
    problem = EstimationProblem(
        records=lab_spectra, n_harmonics=1, pump=2.0 * math.pi, alpha=0.0, band_hz=(0.0, 0.5)
    )
    est = estimate_htf(problem)
    d = est.diagnostics
    assert not est.excitation_mask[-1].any() and not est.harmonics[-1].any()
    assert d["cond_by_order"][0] == 0.0
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_cond_estimate_draws_no_random_numbers(monkeypatch, lab_problem, lab_estimate):
    def forbidden(*args, **kwargs):
        raise AssertionError("the condition estimate touched the global RNG")

    for name in ("seed", "get_state", "randint"):
        monkeypatch.setattr(np.random, name, forbidden)
    d = estimate_htf(lab_problem).diagnostics
    assert np.isfinite(d["cond_estimate"])
    assert d["cond_estimate"] == lab_estimate.diagnostics["cond_estimate"]


def normal_diagonals(n_bins, width):
    """Gram diagonals a = sum_r |X_rn|^2 of five random records and random
    right-hand sides b, both of shape (n_bins, width)."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n_bins, 5, width)) + 1j * rng.standard_normal((n_bins, 5, width))
    b = rng.standard_normal((n_bins, width)) + 1j * rng.standard_normal((n_bins, width))
    return np.sum(np.abs(X) ** 2, axis=1), b


def test_nan_condition_estimate_is_ill_conditioned():
    a, b = normal_diagonals(6, 3)
    a[2, 1] = np.nan
    with pytest.raises(IllConditionedError, match="nan"):
        _solve_orders(SimpleNamespace(alpha=0.3), a, b)


def test_singular_band_factor_is_ill_conditioned():
    # the penalty alone leaves constant and linear runs of every harmonic
    # free, and one excited bin pins only one point of such a run
    for excited in (0.0, 1.0):
        a = np.ones((7, 3))
        a[:, 1] = 0.0
        a[3, 1] = excited
        with pytest.raises(IllConditionedError, match="normal matrix is singular"):
            _solve_orders(SimpleNamespace(alpha=1.0), a, np.ones((7, 3), dtype=complex))


def order_matrices(a, alpha):
    """The dense matrices diag(a_n) + alpha * D2^T D2, one per order (column of a)."""
    d2 = second_difference(a.shape[0])
    return [np.diag(column) + alpha * (d2.T @ d2) for column in a.T]


def assert_matches_dense_oracle(a, b, alpha):
    g, cond = _solve_orders(SimpleNamespace(alpha=alpha), a, b)
    for n, dense in enumerate(order_matrices(a, alpha)):
        want = np.linalg.solve(dense, b[:, n])
        assert np.max(np.abs(g[:, n] - want)) <= 1e-12 * np.max(np.abs(want))
        exact = np.abs(dense).sum(axis=0).max() * np.abs(np.linalg.inv(dense)).sum(axis=0).max()
        # the Hager probe is exact on these systems, so every column of
        # ||A||_1 (the diagonals above and below the main one) shows in it
        assert cond[n] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n_bins", [3, 6, 7])
def test_band_solve_matches_dense_oracle(n_bins):
    # with ||A||_1 < 1 (or ||A^-1||_1 < 1) too
    a, b = normal_diagonals(n_bins, 3)
    for scale in (1e-2, 1.0, 1e2):
        assert_matches_dense_oracle(scale * a, b, 0.3 * scale)


def test_coupled_solve_forms_no_square_of_the_bin_count():
    # The penalty enters as its diagonals and the orders are solved apart,
    # so memory grows with the bin count: 1999 bins of width 3 peak at 1.56
    # MiB of traced memory (2.7 MiB for the pair-block solve this replaced),
    # where one dense n_bins^2 float64 array is 30.5 MiB.
    n_bins = 1999
    a, b = normal_diagonals(n_bins, 3)
    tracemalloc.start()
    try:
        _solve_orders(SimpleNamespace(alpha=0.3), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 2**20


def test_estimate_traced_peak(lab_problem):
    # 210 bins of 7 orders from 9 records: the regressor tensor (212 KiB)
    # and its assembly set the peak, about 0.73 MiB; the pair-block solve
    # this replaced peaked at 1.89 MiB.
    estimate_htf(lab_problem)
    gc.collect()
    tracemalloc.start()
    try:
        estimate_htf(lab_problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


def refined_reference(a, alpha, b, start):
    """Refine `start` against each order's normal equations
    ``(diag(a_n) + alpha * D2^T D2) g_n = b_n``: three steps, each with the
    residual in long double and the correction from a dense solve."""
    d2 = second_difference(a.shape[0])
    curv = (alpha * (d2.T @ d2)).astype(np.longdouble)
    ref = start.astype(np.clongdouble)
    for n, dense in enumerate(order_matrices(a, alpha)):
        for _ in range(3):
            applied = a[:, n].astype(np.longdouble) * ref[:, n] + curv @ ref[:, n]
            residual = (b[:, n].astype(np.clongdouble) - applied).astype(complex)
            ref[:, n] += np.linalg.solve(dense, residual)
    return ref.astype(complex)


def test_lab_estimate_matches_refined_reference(lab_problem, lab_estimate):
    orders = range(-lab_problem.n_harmonics, lab_problem.n_harmonics + 1)
    G = np.column_stack([lab_estimate.harmonics[n] for n in orders])
    systems = [build_regressor(lab_problem, w) for w in lab_estimate.omega_grid]
    Phi, y = (np.stack(part) for part in zip(*systems))
    gram = Phi.conj().transpose(0, 2, 1) @ Phi
    a = np.diagonal(gram, axis1=1, axis2=2).real
    # the records' design makes every bin's Gram diagonal (6.9e-15 measured)
    off = gram - a[:, :, None] * np.eye(a.shape[1])
    assert np.max(np.abs(off)) <= 1e-14 * np.max(a)
    b = (Phi.conj().transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]
    ref = refined_reference(a, lab_problem.alpha, b, G)
    assert np.max(np.abs(G - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_penalty_dominated_few_bins_match_refined_reference(seed):
    # 7 bins of 7 orders from 9 records, Gram diagonals about 1.5e-6 and
    # alpha = 1 (conditions 1.4e7 to 2.4e7): the penalty dominates, and
    # the factors alone are off by 1.1e-10 to 1.8e-10 of max|g|.  The
    # refinement step brings them within 1e-10 (6e-14 measured).
    rng = np.random.default_rng(seed)
    X = 3e-4 * (rng.standard_normal((7, 9, 7)) + 1j * rng.standard_normal((7, 9, 7)))
    a = np.sum(np.abs(X) ** 2, axis=1)
    b = 1e-3 * (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    g, cond = _solve_orders(SimpleNamespace(alpha=1.0), a, b)
    assert np.all((1e7 < cond) & (cond < 1e9))
    ref = refined_reference(a, 1.0, b, g)
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_zero_amplitude_is_no_data(lab_model, lab_cycle):
    recs = run_experiments(
        lab_model,
        lab_cycle,
        ChirpPlan(amplitude=0.0, n_segments=3, warmup_periods=0),
    )
    problem = EstimationProblem(
        records=spectra(recs), n_harmonics=1, pump=2.0 * math.pi
    )
    with pytest.raises(NoDataError):
        estimate_htf(problem)


def test_starved_band_is_ill_conditioned(lab_spectra):
    # (0, 0.5] Hz leaves whole harmonic columns without excitation at
    # alpha values that cannot bridge the gap
    problem = EstimationProblem(
        records=lab_spectra,
        n_harmonics=3,
        pump=2.0 * math.pi,
        band_hz=(0.0, 0.5),
    )
    with pytest.raises(IllConditionedError):
        estimate_htf(problem)
