"""DFT bookkeeping, the banded regressor, and the regularized solve."""

import cmath
import dataclasses
import math
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
    estimate_htf,
    gen_chirp,
    run_experiments,
    second_difference,
    spectra,
)
from htfid.estimate import (
    _candidate_bins,
    _curvature_gram,
    _regressor_tensor,
    _solve_coupled,
    median,
)

from helpers import relerr


def lti_frf(w):
    """Stable second-order reference plant used for synthetic records."""
    return 1.0 / (200.0 - w**2 + 0.6j * w)


def make_record(u, x, clock_phase, dt=1e-3, index=0):
    zeros = np.zeros_like(u)
    traj = Trajectory(dt=dt, t0=0.0, x=x, xdot=zeros, u=u, chart=zeros)
    return ExperimentRecord(index=index, clock_phase=clock_phase, traj=traj)


def lti_chirp_spectra(n_records=9):
    """Chirp records passed through the LTI reference plant exactly.

    The response is synthesized in the frequency domain, i.e. as the
    periodic steady state of the repeated chirp -- the same structure
    run_experiments produces after its warm-up play.
    """
    dt = 1e-3
    u = gen_chirp(ChirpPlan(), 0, dt)
    freq = 2.0 * math.pi * np.fft.fftfreq(u.size, dt)
    x = np.fft.ifft(lti_frf(freq) * np.fft.fft(u)).real
    return [
        spectra(make_record(u, x, k / n_records, dt, index=k))
        for k in range(n_records)
    ]


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
    return [spectra(make_record(u, x, k / 3.0, dt, index=k)) for k in range(3)]


# ---------------------------------------------------------------- spectra


def test_spectra_sinusoid_lands_in_one_bin():
    n, dt = 3000, 1e-3
    t = np.arange(n) * dt
    u = np.sin(2.0 * math.pi * 2.0 * t)  # bin 6 of a 3 s record
    rec = spectra(make_record(u, np.zeros(n), 0.0, dt))
    assert abs(rec.U[6] - (-0.5j)) < 1e-12
    off = np.abs(np.delete(rec.U, [6, n - 6]))
    assert np.max(off) < 1e-12


def test_spectra_parseval(lab_records, lab_spectra):
    # with the 1/n normalization the identity picks up the duration
    u = lab_records[0].traj.u
    rec = lab_spectra[0]
    lhs = float(np.sum(u**2) * 1e-3)
    rhs = rec.duration * float(np.sum(np.abs(rec.U) ** 2))
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
        spectra(make_record(u, x, 0.0))


# ------------------------------------------------------------- regressor


def test_problem_validation(lab_spectra):
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


def test_regressor_shapes_and_zero_record(lab_spectra):
    silent = dataclasses.replace(
        lab_spectra[0], U=np.zeros_like(lab_spectra[0].U)
    )
    problem = EstimationProblem(
        records=[silent] + lab_spectra[1:],
        n_harmonics=3,
        pump=2.0 * math.pi,
    )
    Phi, y = build_regressor(problem, 2.0 * math.pi / 30.0 * 100)
    assert Phi.shape == (9, 7) and y.shape == (9,)
    # a record with no input energy contributes an all-zero row
    assert not Phi[0].any()
    # at bin 100 every shifted line is in band, so live rows are dense
    assert np.all(np.abs(Phi[1:]) > 0)


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
    spacing = lab_problem.records[0].bin_spacing
    for q in (15_000, -15_000, 15_000.4):
        Phi, y = build_regressor(lab_problem, q * spacing)
        assert Phi.shape == (9, 2 * lab_problem.n_harmonics + 1) and y.shape == (9,)


def test_regressor_matches_scalar_reference(lab_problem):
    # Entries formed one at a time with Python complex arithmetic, straight
    # from the row equation and the band test; the tensor must agree exactly.
    rec0 = lab_problem.records[0]
    spacing, n_fft = rec0.bin_spacing, rec0.n_bins
    lo, hi = 2.0 * math.pi * 0.0, 2.0 * math.pi * 7.0
    for q in (-177, 1, 40, 100, 205):
        Phi, y = build_regressor(lab_problem, q * spacing)
        for r, rec in enumerate(lab_problem.records):
            assert y[r] == rec.Y[q % n_fft]
            for col, n in enumerate(range(-3, 4)):
                shift = q - n * lab_problem.pump_bins
                excited = shift != 0 and lo < abs(shift) * spacing <= hi + 0.5 * spacing
                mod = cmath.exp(1j * n * lab_problem.pump * rec.clock_phase)
                assert Phi[r, col] == (mod * rec.U[shift % n_fft] if excited else 0.0)


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
    d2 = second_difference(n_points)
    gram = _curvature_gram(n_points)
    assert gram.dtype == np.float64
    assert gram.tobytes() == (d2.T @ d2).tobytes()


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
    spacing = specs[0].bin_spacing
    for i, w in enumerate(est.omega_grid):
        Phi, y = build_regressor(problem, float(w))
        g, *_ = np.linalg.lstsq(Phi, y, rcond=None)
        for col, n in enumerate((-1, 0, 1)):
            assert est.harmonics[n][i] == g[col]
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


def test_cond_estimate_draws_no_random_numbers(monkeypatch, lab_problem, lab_estimate):
    def forbidden(*args, **kwargs):
        raise AssertionError("the condition estimate touched the global RNG")

    for name in ("seed", "get_state", "randint"):
        monkeypatch.setattr(np.random, name, forbidden)
    d = estimate_htf(lab_problem).diagnostics
    assert np.isfinite(d["cond_estimate"])
    assert d["cond_estimate"] == lab_estimate.diagnostics["cond_estimate"]


def gram_blocks(n_bins, width):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n_bins, 5, width)) + 1j * rng.standard_normal((n_bins, 5, width))
    rhs = rng.standard_normal(n_bins * width) + 1j * rng.standard_normal(n_bins * width)
    return X.conj().transpose(0, 2, 1) @ X, rhs


def test_nan_condition_estimate_is_ill_conditioned():
    blocks, rhs = gram_blocks(6, 3)
    blocks[2, 1, 1] = np.nan
    with pytest.raises(IllConditionedError, match="nan"):
        _solve_coupled(SimpleNamespace(alpha=0.3), blocks, rhs)


def test_inverse_fault_propagates(monkeypatch, lab_problem):
    class ProbeFault(Exception):
        pass

    def broken(*args, **kwargs):
        raise ProbeFault("inv failed")

    monkeypatch.setattr(np.linalg, "inv", broken)
    with pytest.raises(ProbeFault):
        estimate_htf(lab_problem)


def test_singular_band_factor_is_ill_conditioned():
    # the penalty alone leaves constant and linear runs of every harmonic free
    blocks = np.zeros((7, 3, 3), dtype=complex)
    with pytest.raises(IllConditionedError, match="normal matrix is singular"):
        _solve_coupled(SimpleNamespace(alpha=1.0), blocks, np.ones(21, dtype=complex))


def assert_matches_dense_oracle(blocks, rhs, alpha):
    g, cond = _solve_coupled(SimpleNamespace(alpha=alpha), blocks, rhs)
    n_bins, width, _ = blocks.shape
    dense = np.zeros((n_bins * width, n_bins * width), dtype=complex)
    for b in range(n_bins):
        dense[b * width : (b + 1) * width, b * width : (b + 1) * width] = blocks[b]
    d2 = np.zeros((n_bins - 2, n_bins))
    for r in range(n_bins - 2):
        d2[r, r : r + 3] = (1.0, -2.0, 1.0)
    dense += alpha * np.kron(d2.T @ d2, np.eye(width))
    want = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))
    exact = np.abs(dense).sum(axis=0).max() * np.abs(np.linalg.inv(dense)).sum(axis=0).max()
    # the Hager probe is exact on these systems, so every column of ||A||_1
    # (blocks above and below the diagonal) shows in the figure
    assert cond == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n_bins", [3, 6, 7])
def test_band_solve_matches_dense_oracle(n_bins):
    blocks, rhs = gram_blocks(n_bins, 3)
    assert_matches_dense_oracle(blocks, rhs, 0.3)


@pytest.mark.parametrize("scale", [1e-2, 1e2])
def test_unit_bin_stays_out_of_the_condition_estimate(scale):
    # With ||A||_1 < 1 (or ||A^-1||_1 < 1) an odd bin count's unit padding
    # bin would dominate the norm (or the probes) if either saw it.
    blocks, rhs = gram_blocks(7, 3)
    assert_matches_dense_oracle(scale * blocks, rhs, 0.3 * scale)


def refined_reference(blocks, curv, rhs, start):
    """Refine `start` against the normal equations of the bin blocks and the
    bin-coupling penalty `curv`: three steps, each with the residual in long
    double and the correction from a dense solve."""
    n_bins, width, _ = blocks.shape
    dense = np.kron(curv, np.eye(width)).astype(complex)
    for b in range(n_bins):
        dense[b * width : (b + 1) * width, b * width : (b + 1) * width] += blocks[b]
    wide_blocks = blocks.astype(np.clongdouble)
    wide_curv = curv.astype(np.longdouble)
    wide_rhs = rhs.reshape(n_bins, width).astype(np.clongdouble)
    ref = start.reshape(n_bins, width).astype(np.clongdouble)
    for _ in range(3):
        applied = (wide_blocks @ ref[:, :, None])[:, :, 0] + wide_curv @ ref
        residual = (wide_rhs - applied).astype(complex)
        ref = ref + np.linalg.solve(dense, residual.ravel()).reshape(n_bins, width)
    return ref.astype(complex).reshape(start.shape)


def test_lab_estimate_matches_refined_reference(lab_problem, lab_estimate):
    orders = range(-lab_problem.n_harmonics, lab_problem.n_harmonics + 1)
    G = np.column_stack([lab_estimate.harmonics[n] for n in orders])
    systems = [build_regressor(lab_problem, w) for w in lab_estimate.omega_grid]
    Phi, y = (np.stack(part) for part in zip(*systems))
    Phi_H = Phi.conj().transpose(0, 2, 1)
    d2 = second_difference(G.shape[0])
    curv = lab_problem.alpha * (d2.T @ d2)
    ref = refined_reference(Phi_H @ Phi, curv, Phi_H @ y[:, :, None], G)
    assert np.max(np.abs(G - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_penalty_dominated_few_bins_match_refined_reference(seed):
    # 7 bins of 7 orders from 9 records, Gram diagonals about 1.5e-6 and
    # alpha = 1 (condition about 6e7): the penalty dominates, and the
    # explicit Schur-complement inverses alone are off by some 1e-6 of
    # max|g|.  The refinement step brings them within 1e-10.
    rng = np.random.default_rng(seed)
    X = 3e-4 * (rng.standard_normal((7, 9, 7)) + 1j * rng.standard_normal((7, 9, 7)))
    blocks = X.conj().transpose(0, 2, 1) @ X
    rhs = 1e-3 * (rng.standard_normal(49) + 1j * rng.standard_normal(49))
    g, cond = _solve_coupled(SimpleNamespace(alpha=1.0), blocks, rhs)
    assert 1e7 < cond < 1e9
    ref = refined_reference(blocks, _curvature_gram(7), rhs, g)
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_zero_amplitude_is_no_data(lab_model, lab_cycle):
    recs = run_experiments(
        lab_model,
        lab_cycle,
        ChirpPlan(amplitude=0.0, n_segments=3),
        warmup_periods=0,
    )
    problem = EstimationProblem(
        records=[spectra(r) for r in recs], n_harmonics=1, pump=2.0 * math.pi
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
