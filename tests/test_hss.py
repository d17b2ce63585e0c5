"""Square-wave coefficients, harmonic state space assembly, and eval_htf."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import htfid.fit
from htfid import (
    HybridModel,
    InvalidInputError,
    ModelParams,
    SingularFrequencyError,
    TruncatedHSS,
    build_hss,
    default_grid,
    error_trajectory,
    eval_htf,
    fourier_series,
    integrate,
    linearize,
    read_htf_csv,
    square_wave_coeffs,
    write_htf_csv,
)
from htfid import hss as hss_module
from htfid.errors import DegenerateSwitchingWarning

from helpers import relerr


def test_square_wave_half_duty_closed_form():
    s = square_wave_coeffs(0.5, 0.0, 1.0, 2)
    assert s[2] == pytest.approx(0.5, abs=1e-15)
    assert s[3] == pytest.approx(-1j / math.pi, abs=1e-15)
    assert s[4] == pytest.approx(0.0, abs=1e-15)


def test_square_wave_general(lab_cycle):
    s = square_wave_coeffs(lab_cycle.duty, lab_cycle.t_hat, 1.0, 10)
    assert s[10].real == pytest.approx(lab_cycle.duty, abs=1e-15)
    # real signal: coefficients come in conjugate pairs
    for n in range(1, 11):
        assert s[10 - n] == np.conj(s[10 + n])


def test_square_wave_matches_fine_flag_fft(lab_cycle):
    # Rebuild the on/off flag on a fine grid and take its DFT; the
    # closed-form coefficients must agree to the rectangle-rule error.
    n_fine = 2**21
    t = np.arange(n_fine) / n_fine
    flag = ((t - lab_cycle.t_hat) % 1.0) < lab_cycle.duty
    S = np.fft.fft(flag.astype(float)) / n_fine
    s = square_wave_coeffs(lab_cycle.duty, lab_cycle.t_hat, 1.0, 10)
    worst = max(abs(S[n % n_fine] - s[10 + n]) for n in range(-10, 11))
    assert worst < 1e-6


def test_square_wave_matches_recorded_flag(lab_cycle):
    # Same check against the velocity sign sampled at the working dt;
    # accuracy is limited by crossing quantization, not the formula.
    flag = (lab_cycle.xdot > 0.0).astype(float)
    S = np.fft.fft(flag) / flag.size
    s = square_wave_coeffs(lab_cycle.duty, lab_cycle.t_hat, 1.0, 5)
    worst = max(abs(S[n % flag.size] - s[5 + n]) for n in range(-5, 6))
    # each crossing is localized to sub-dt, but the sampled wave can only
    # place edges on the 1 ms grid: budget ~2*dt/T
    assert worst < 2e-3


def test_square_wave_degenerate_duty():
    with pytest.warns(DegenerateSwitchingWarning):
        s = square_wave_coeffs(1.0, 0.0, 1.0, 3)
    assert np.array_equal(s, np.eye(7, dtype=complex)[3] * 1.0)
    with pytest.warns(DegenerateSwitchingWarning):
        s = square_wave_coeffs(0.0, 0.3, 1.0, 3)
    assert np.array_equal(s, np.zeros(7, dtype=complex))


def test_fourier_series_structure(lab_lin, lab_cycle):
    fs = fourier_series(lab_lin, 3)
    s = square_wave_coeffs(lab_cycle.duty, lab_cycle.t_hat, 1.0, 3)
    assert np.array_equal(
        fs.A[3], np.array([[0.0, 1.0], [-200.0, -2.0 * lab_cycle.duty]])
    )
    for n in (1, 2, 3):
        expect = np.array([[0.0, 0.0], [0.0, -2.0 * s[3 + n]]])
        assert np.array_equal(fs.A[3 + n], expect)
        assert np.array_equal(fs.A[3 - n], np.conj(fs.A[3 + n]))
    # input/output paths carry no modulation: the plant's constant maps
    assert np.array_equal(fs.B, lab_lin.B)
    assert np.array_equal(fs.C, lab_lin.C)
    assert np.array_equal(fs.D, [[lab_lin.D]])


def test_undamped_series_is_time_invariant(lab_cycle):
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    fs = fourier_series(lin, 4)
    for n in range(1, 5):
        assert not fs.A[4 + n].any() and not fs.A[4 - n].any()


def test_hand_assembled_truncation_order_one(lab_lin, lab_cycle):
    """Assemble the n_h=1 harmonic system by hand and compare eval_htf."""
    w_p = 2.0 * math.pi / lab_cycle.T
    s = square_wave_coeffs(lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T, 1)
    A = {
        0: np.array([[0.0, 1.0], [-200.0, -2.0 * s[1].real]]),
        1: np.array([[0.0, 0.0], [0.0, -2.0 * s[2]]]),
        -1: np.array([[0.0, 0.0], [0.0, -2.0 * s[0]]]),
    }
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    Abig = np.zeros((6, 6), dtype=complex)
    Nbig = np.zeros((6, 6), dtype=complex)
    Bbig = np.zeros((6, 3), dtype=complex)
    Cbig = np.zeros((3, 6), dtype=complex)
    for r in range(3):
        Nbig[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = 1j * (r - 1) * w_p * np.eye(2)
        Bbig[2 * r : 2 * r + 2, r : r + 1] = B
        Cbig[r : r + 1, 2 * r : 2 * r + 2] = C
        for c in range(3):
            if abs(r - c) <= 1:
                Abig[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = A[r - c]

    grid = np.array([1.0, 3.7, 6.283185307179586, 11.0, 20.0])
    hts = eval_htf(build_hss(fourier_series(lab_lin, 1)), grid, convention="input")
    for i, w in enumerate(grid):
        G = Cbig @ np.linalg.solve(1j * w * np.eye(6) - (Abig - Nbig), Bbig)
        for n in (-1, 0, 1):
            assert abs(G[1 + n, 1] - hts.harmonics[n][i]) < 1e-13


def test_truncation_order_zero_is_averaged_lti(lab_lin, lab_cycle):
    # n_h=0 keeps only the duty-averaged damping: an ordinary FRF.
    grid = default_grid(7.0, 50)
    hts = eval_htf(build_hss(fourier_series(lab_lin, 0)), grid)
    frf = 1.0 / (200.0 - grid**2 + 2.0j * lab_cycle.duty * grid)
    assert np.max(np.abs(hts.harmonics[0] - frf)) < 1e-13


def test_undamped_htf_collapses_to_frf(lab_cycle):
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    grid = default_grid(7.0, 600)
    hts = eval_htf(build_hss(fourier_series(lin, 5)), grid, n_keep=3)
    frf = 1.0 / (200.0 - grid**2)
    off_res = np.abs(200.0 - grid**2) > 1.0
    assert np.max(relerr(hts.harmonics[0][off_res], frf[off_res])) < 1e-12
    for n in range(-3, 4):
        if n != 0:
            assert np.max(np.abs(hts.harmonics[n])) < 1e-14


def test_eval_htf_conjugate_symmetry(lab_hss10):
    # real system: G_n(-jw) = conj(G_{-n}(jw))
    grid = default_grid(7.0, 80)
    pos = eval_htf(lab_hss10, grid, n_keep=3)
    neg = eval_htf(lab_hss10, -grid, n_keep=3)
    worst = 0.0
    for n in range(-3, 4):
        worst = max(
            worst,
            float(np.max(np.abs(neg.harmonics[n] - np.conj(pos.harmonics[-n])))),
        )
    assert worst < 1e-8


def test_eval_htf_convention_shift(lab_hss10, lab_cycle):
    # output-referred value at w equals the input-referred value at
    # w - n*w_p; exact up to block truncation at the window edge
    w_p = 2.0 * math.pi / lab_cycle.T
    grid = default_grid(7.0, 40)
    out = eval_htf(lab_hss10, grid, n_keep=3, convention="output")
    for n in range(-3, 4):
        inn = eval_htf(lab_hss10, grid - n * w_p, n_keep=3, convention="input")
        assert np.max(np.abs(out.harmonics[n] - inn.harmonics[n])) < 1e-6


def test_truncation_convergence(lab_lin):
    """Sup-norm change per n_h increment dies off by n_h=10.

    The sequence is not monotone: odd coefficients of the damper square
    wave are the large ones, so going 4 -> 5 pulls in a new odd image
    near the resonance and the change jumps before decaying again.
    """
    grid = default_grid(7.0, 600)
    sets = {
        nh: eval_htf(build_hss(fourier_series(lab_lin, nh)), grid, n_keep=3)
        for nh in range(3, 11)
    }
    diffs = []
    for nh in range(3, 10):
        d = max(
            float(np.max(np.abs(sets[nh].harmonics[n] - sets[nh + 1].harmonics[n])))
            for n in range(-3, 4)
        )
        diffs.append(d)
    assert diffs[-1] < 1.5e-6
    assert max(diffs[-3:]) < 1e-5


def test_sinusoid_probe_matches_theory(lab_model, lab_cycle, lab_hss10):
    """Time-domain cross-check of the harmonic transfer functions.

    Drive the nonlinear hybrid model with a small sinusoid at a pump
    multiple of 2.25 (so probe, pump, and all mixing lines are periodic
    over the 8 s window), wait out the transient, and project the
    deviation onto the expected output lines.
    """
    w = 2.25 * 2.0 * math.pi / lab_cycle.T
    amp = 1e-4
    tr = integrate(
        lab_model,
        lab_cycle.state_at(0.0),
        lambda t: amp * np.cos(w * t),
        48.0,
        lab_cycle.dt,
    )
    dev = error_trajectory(tr, lab_cycle)
    sl = slice(40000, 48000)
    t_win = tr.times()[sl]
    xi = dev.x[sl]
    theory = eval_htf(lab_hss10, np.array([w]), n_keep=1, convention="input")
    w_p = 2.0 * math.pi / lab_cycle.T
    for n in (-1, 0, 1):
        # cos splits its power over +/-w; factor 2 recovers the +w line
        proj = 2.0 / amp * np.mean(xi * np.exp(-1j * (w + n * w_p) * t_win))
        ref = theory.harmonics[n][0]
        assert abs(proj - ref) / abs(ref) < 5e-4


def test_eval_htf_validation(monkeypatch, lab_hss10):
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([]))
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, default_grid(7.0, 10), n_keep=11)
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([1.0, np.nan]))
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([1.0]), dA=[np.eye(2)])
    # refused before any work: a complex grid (once evaluated at its real
    # part with a ComplexWarning), a non-numeric one (once a bare
    # ValueError) and an unknown convention (once refused after the solves)
    monkeypatch.setattr(hss_module, "_real_form", None)
    for grid, convention in [
        (np.array([1.0 + 0.5j, 2.0]), "input"),
        (np.array([1.0, 2.0], dtype=complex), "output"),
        (["a", "b"], "input"),
        ([[1.0], [1.0, 2.0]], "input"),
        ([1.0, None], "input"),
        ([1.0, 2.0], "both"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="omega_grid|convention"):
                eval_htf(lab_hss10, grid, convention=convention)


@pytest.mark.parametrize(
    "call",
    [
        lambda lin, hss: eval_htf(hss, [1.0], n_keep=-1),  # would return no harmonics
        lambda lin, hss: eval_htf(hss, [1.0], n_keep=1.5),  # would escape as IndexError
        lambda lin, hss: fourier_series(lin, 1.5),  # would escape as TypeError
        lambda lin, hss: fourier_series(lin, -1),
        lambda lin, hss: square_wave_coeffs(0.5, 0.0, 1.0, 2.0),
    ],
    ids=["n-keep-negative", "n-keep-fraction", "n-h-fraction", "n-h-negative", "n-h-float"],
)
def test_truncation_orders_must_be_integers_in_range(lab_lin, lab_hss10, call):
    with pytest.raises(InvalidInputError, match="n_keep|n_h"):
        call(lab_lin, lab_hss10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_htf_refuses_a_nonfinite_direction(lab_hss10, bad):
    # an all-nan direction used to give nan sensitivities without a word
    n = lab_hss10.n_states
    partial = np.zeros((n, n))
    partial[3, 4] = bad
    for dA in ([np.full((n, n), bad)], [np.eye(n), partial]):
        with pytest.raises(InvalidInputError, match="dA must be finite"):
            eval_htf(lab_hss10, np.array([1.0]), dA=dA)


def test_eval_htf_singular_frequency_is_nudged(lab_cycle):
    # the undamped system pole sits exactly on one grid point, in the
    # middle of the second of three batches
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    hss = build_hss(fourier_series(lin, 2))
    step = hss_module._BATCH_ENTRIES // hss.n_states
    grid = np.linspace(1.0, 30.0, 2 * step + 1)
    pole = step + step // 2
    grid[pole] = math.sqrt(200.0)
    hts = eval_htf(hss, grid, n_keep=1)
    singular = [note for note in hts.warnings if "singular" in note]
    assert len(singular) == 1
    assert singular[0].startswith(f"omega={math.sqrt(200.0):.9g}:")
    for n in (-1, 0, 1):
        assert np.all(np.isfinite(hts.harmonics[n]))
    # batching changes nothing: each point equals its own one-point solve
    for i, w in enumerate(grid):
        alone = eval_htf(hss, grid[i : i + 1], n_keep=1)
        for n in (-1, 0, 1):
            assert np.array_equal(alone.harmonics[n], hts.harmonics[n][i : i + 1])


def _real_hss(A, B, C):
    """An n_h = 0 harmonic system: the plain LTI system (A, B, C)."""
    return TruncatedHSS(
        n_h=0,
        pump=2.0 * math.pi,
        generator=np.asarray(A, dtype=complex),
        B=np.asarray(B, dtype=float),
        C=np.asarray(C, dtype=float),
        D=np.zeros((1, 1)),
    )


def _rotation(w):
    """Real 2x2 block with eigenvalues +/- j*w."""
    return np.array([[0.0, w], [-w, 0.0]])


def test_eval_htf_raises_when_nudge_stays_singular():
    # poles at +/-j*w0 and at +/-j times the nudged w0: the retry is singular too
    w0 = 3.0
    A = np.zeros((4, 4))
    A[:2, :2] = _rotation(w0)
    A[2:, 2:] = _rotation(w0 * (1.0 + hss_module.SINGULAR_NUDGE))
    hss = _real_hss(A, np.ones((4, 1)), np.ones((1, 4)))
    with pytest.raises(SingularFrequencyError, match="omega=3$"):
        eval_htf(hss, np.array([1.0, w0]))


def _solve_long_double(M, b):
    """x with M x = b by Gaussian elimination with partial pivoting in
    extended precision (np.clongdouble), an oracle independent of LAPACK."""
    M = np.array(M, dtype=np.clongdouble)
    x = np.array(b, dtype=np.clongdouble)
    n = M.shape[0]
    for j in range(n):
        p = j + int(np.argmax(np.abs(M[j:, j])))
        M[[j, p]], x[[j, p]] = M[[p, j]], x[[p, j]]
        f = M[j + 1 :, j] / M[j, j]
        M[j + 1 :, j:] -= f[:, None] * M[j, j:]
        x[j + 1 :] -= f * x[j]
    for j in range(n - 1, -1, -1):
        x[j] = (x[j] - M[j, j + 1 :] @ x[j + 1 :]) / M[j, j]
    return x


@pytest.mark.parametrize("convention", ["input", "output"])
def test_eval_htf_refuses_a_direction_of_no_real_system(lab_lin, lab_cycle, convention):
    # j times the c-direction is not its own mirror: its cosine/sine form,
    # which the sensitivity solve multiplies, is complex
    hss = build_hss(fourier_series(lab_lin, 3))
    dA = htfid.fit._affine_hss(1.0, lab_cycle.duty, lab_cycle.t_hat, 1.0, 3)[1]
    with pytest.raises(InvalidInputError, match="real system"):
        eval_htf(hss, np.array([1.0]), convention=convention, dA=[dA[0], 1j * dA[1]])


@pytest.mark.parametrize("convention", ["input", "output"])
def test_eval_htf_matches_long_double_oracle(lab_lin, lab_cycle, convention):
    """Gains and both (k, c) sensitivities at n_h=3 against an extended-
    precision elimination of the same harmonic balance system."""
    n_h = 3
    hss = build_hss(fourier_series(lab_lin, n_h))
    dA = htfid.fit._affine_hss(1.0, lab_cycle.duty, lab_cycle.t_hat, 1.0, n_h)[1]
    grid = np.linspace(0.7, 43.0, 10)
    hts = eval_htf(hss, grid, convention=convention, dA=dA)
    keep = np.arange(-n_h, n_h + 1)
    gen = hss.generator.astype(np.clongdouble)
    # B_blk and C_blk are block diagonal in the plant's B and C: the
    # harmonic-0 column (row) and the kept-order rows (columns) hold them
    # at one block each
    width, per = 2 * n_h + 1, lab_lin.B.shape[0]

    def at_block(value, n):
        placed = np.zeros((width, per))
        placed[n_h + n] = np.ravel(value)
        return placed.ravel()

    B0, C0 = at_block(lab_lin.B, 0), at_block(lab_lin.C, 0)
    B_kept = np.column_stack([at_block(lab_lin.B, -n) for n in keep])
    C_kept = np.array([at_block(lab_lin.C, n) for n in keep])
    D_kept = np.where(keep == 0, lab_lin.D, 0.0)
    worst = 0.0
    for i, w in enumerate(grid):
        M = 1j * np.clongdouble(w) * np.eye(hss.n_states) - gen
        if convention == "input":
            x = _solve_long_double(M, B0)
            gains = C_kept @ x + D_kept
            derivs = [C_kept @ _solve_long_double(M, d @ x) for d in dA]
        else:
            y = _solve_long_double(M.T, C0)
            gains = y @ B_kept + D_kept
            derivs = [_solve_long_double(M.T, y @ d) @ B_kept for d in dA]
        for j, n in enumerate(keep):
            worst = max(worst, relerr(hts.harmonics[n][i], gains[j]))
            for got, exact in zip(hts.sensitivities, derivs):
                worst = max(worst, relerr(got[n][i], exact[j]))
    assert worst <= 1e-13


def test_condition_note_next_to_undamped_pole(lab_cycle):
    # beside (not on) the pole at sqrt(200): the bound must not miss a
    # point whose exact |M|_1 |M^-1|_1 is past the warning level
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    hss = build_hss(fourier_series(lin, 2))
    w = math.sqrt(200.0) + 1e-11
    M = 1j * w * np.eye(hss.n_states) - hss.generator
    exact = np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1)
    assert exact > hss_module.COND_WARN
    hts = eval_htf(hss, np.array([w]), n_keep=1)
    assert not any("singular" in note for note in hts.warnings)
    [note] = [note for note in hts.warnings if "condition number" in note]
    # the noted figure is an upper bound on the exact one
    assert float(note.split("~")[1]) >= exact


@pytest.mark.parametrize("n_h", [3, 10, 40])
def test_default_grid_has_no_condition_notes(lab_lin, n_h):
    hts = eval_htf(build_hss(fourier_series(lab_lin, n_h)), default_grid(), n_keep=3)
    assert hts.warnings == []


def test_eval_htf_defective_generator():
    # Jordan blocks have no eigenvector basis; the refinement step still
    # recovers the closed forms
    grid = np.linspace(-5.0, 5.0, 21)
    s = 1j * grid
    a = -0.5
    hss = _real_hss([[a, 1.0], [0.0, a]], [[0.0], [1.0]], [[1.0, 0.0]])
    hts = eval_htf(hss, grid)
    assert np.max(relerr(hts.harmonics[0], 1.0 / (s - a) ** 2)) <= 1e-13
    # the real Jordan form of the defective pair sigma +/- j*w: from the
    # first state of the second block to the first state of the first,
    # the gain is the (0, 0) entry of (sI - L)^-2, L = [[sigma, w], [-w, sigma]]
    sigma, w = -0.5, 2.0
    L = np.array([[sigma, w], [-w, sigma]])
    A = np.block([[L, np.eye(2)], [np.zeros((2, 2)), L]])
    hss = _real_hss(A, np.eye(4)[:, 2:3], np.eye(4)[:1])
    hts = eval_htf(hss, grid)
    exact = ((s - sigma) ** 2 - w**2) / ((s - sigma) ** 2 + w**2) ** 2
    assert np.max(relerr(hts.harmonics[0], exact)) <= 1e-13


def test_eval_htf_refuses_a_complex_system(lab_lin):
    # a generator whose real form keeps an imaginary part is not the HSS
    # of a real system: neither a complex LTI system ...
    poles = 1j * np.array([3.0, 5.0])
    hss = _real_hss(np.diag(poles), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(InvalidInputError, match="real system"):
        eval_htf(hss, np.array([1.0]))
    # ... nor a real one whose harmonic n = 1 coefficient lost its mirror
    hss = build_hss(fourier_series(lab_lin, 2))
    gen = hss.generator.copy()
    gen[6, 4] += 1e-6  # row block n = 1, column block n = 0
    with pytest.raises(InvalidInputError, match="real system"):
        eval_htf(dataclasses.replace(hss, generator=gen), np.array([1.0]))


def test_series_off_its_mirror_is_refused_at_construction(lab_lin):
    # the n = 1 damping entry scaled by 1 + 1e-6 sits 6.4e-7 off its mirror:
    # `eval_htf` refuses such a generator, so the series must refuse it first
    series = fourier_series(lab_lin, 10)
    A = series.A.copy()
    A[11, 1, 1] *= 1.0 + 1e-6
    assert abs(A[11, 1, 1] - np.conj(A[9, 1, 1])) == pytest.approx(6.4e-7, rel=0.01)
    with pytest.raises(InvalidInputError, match="conjugates"):
        dataclasses.replace(series, A=A)
    A[11, 1, 1] = np.nan
    with pytest.raises(InvalidInputError, match="finite"):
        dataclasses.replace(series, A=A)


@pytest.mark.parametrize(
    "n, row, col, direction",
    [
        (0, 1, 0, 1j),
        (0, 1, 1, 1j),
        (1, 1, 1, 1.0),
        (1, 1, 1, 1j),
        (-2, 1, 1, 1 + 1j),
        (10, 0, 1, 1j),
    ],
)
def test_series_that_constructs_also_evaluates(lab_lin, n, row, col, direction):
    # one coefficient moved off its mirror by just under, then just over,
    # what the series accepts: under it the built generator evaluates
    series = fourier_series(lab_lin, 10)
    limit = 1e-12 * np.linalg.norm(series.A.reshape(-1, 2), 1)

    def moved(size):
        A = series.A.copy()
        A[10 + n, row, col] += size * direction
        return A

    unit = np.max(np.abs(moved(1.0) - moved(1.0)[::-1].conj()))
    inside = dataclasses.replace(series, A=moved(0.999 * limit / unit))
    hts = eval_htf(build_hss(inside), default_grid(7.0, 5), n_keep=1)
    assert all(np.all(np.isfinite(g)) for g in hts.harmonics.values())
    with pytest.raises(InvalidInputError, match="conjugates"):
        dataclasses.replace(series, A=moved(1.001 * limit / unit))


def test_eval_htf_decomposes_a_real_matrix(monkeypatch, lab_hss10):
    # one real eigendecomposition and one real inverse per call: no
    # complex eigenvector matrix is inverted
    seen = {"eig": [], "inv": []}

    def spy(name, function):
        def call(a):
            seen[name].append(a.dtype)
            return function(a)

        return call

    monkeypatch.setattr(np.linalg, "eig", spy("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
    for convention in ("input", "output"):
        eval_htf(lab_hss10, default_grid(7.0, 5), n_keep=1, convention=convention)
    real = [np.dtype(np.float64)] * 2
    assert seen == {"eig": real, "inv": real}


@pytest.mark.parametrize("n_h", [0, 3, 10, 40])
def test_real_form_keeps_the_spectrum(lab_lin, n_h):
    gen = build_hss(fourier_series(lab_lin, n_h)).generator
    real = hss_module._real_form(gen, n_h)
    assert real.dtype == np.float64 and real.shape == gen.shape
    lam = np.linalg.eigvals(gen)
    lam_real = np.linalg.eigvals(real)
    # nearest match: the two orderings need not agree
    gap = np.abs(lam_real[:, None] - lam[None, :]).min(axis=1)
    assert gap.max() <= 1e-12 * np.abs(lam).max()


def test_eval_htf_without_eigenbasis_is_a_typed_error():
    # LAPACK refuses a non-finite generator; that must not escape as a
    # LinAlgError traceback
    hss = TruncatedHSS(
        n_h=0,
        pump=2.0 * math.pi,
        generator=np.array([[np.nan, 1.0], [0.0, -1.0]], dtype=complex),
        B=np.ones((2, 1)),
        C=np.ones((1, 2)),
        D=np.zeros((1, 1)),
    )
    with pytest.raises(SingularFrequencyError, match="eigenbasis"):
        eval_htf(hss, np.array([1.0]))


@pytest.mark.parametrize(
    "name, value, refused_by",
    [
        ("B", np.ones((3, 1)), "eval_htf"),
        ("C", np.ones((1, 3)), "eval_htf"),
        ("D", np.zeros((1, 2)), "eval_htf"),
        ("generator", np.eye(31, dtype=complex), "eval_htf"),
        ("generator", np.eye(30, 31, dtype=complex), "eval_htf"),
        ("B", np.array([[0.0], [1j]]), "series"),
        ("C", np.array([[np.nan, 0.0]]), "series"),
        ("D", np.array([[np.inf]]), "series"),
    ],
    ids=[
        "B-rows",
        "C-columns",
        "D-shape",
        "generator-size",
        "generator-not-square",
        "B-complex",
        "C-nan",
        "D-inf",
    ],
)
def test_maps_that_do_not_fit_are_typed_errors(lab_lin, name, value, refused_by):
    series = fourier_series(lab_lin, 2)
    if refused_by == "series":
        with pytest.raises(InvalidInputError, match=f"^{name} must be real and finite"):
            dataclasses.replace(series, **{name: value})
    else:
        hss = dataclasses.replace(build_hss(series), **{name: value})
        with pytest.raises(InvalidInputError, match=f"^{name} must be .*state blocks"):
            eval_htf(hss, np.array([1.0]))


@pytest.mark.parametrize("convention", ["input", "output"])
def test_hss_holds_one_dense_operator_and_eval_copies_none(lab_lin, convention):
    hss = build_hss(fourier_series(lab_lin, 40))
    n = hss.n_states
    fields = {f.name: getattr(hss, f.name) for f in dataclasses.fields(hss)}
    dense = [name for name, value in fields.items() if np.size(value) >= n]
    assert dense == ["generator"] and hss.generator.shape == (n, n)
    grid = default_grid()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eval_htf(hss, grid, n_keep=3, convention=convention)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the real form, held through the solves, with its eigendecomposition
    # and inverse and the batch scratch peak at 3.1 n^2 complex entries; a
    # copy of the generator would add one more
    assert peak <= 4.5 * n * n * np.dtype(complex).itemsize


def test_default_grid_spans_band():
    grid = default_grid(7.0, 600)
    assert grid.size == 600
    assert grid[0] == pytest.approx(2.0 * math.pi * 7.0 / 600.0, rel=1e-15)
    assert grid[-1] == pytest.approx(14.0 * math.pi, rel=1e-15)
    assert np.all(grid > 0.0)


@pytest.mark.parametrize("convention", ["input", "output"])
def test_htf_csv_roundtrip(tmp_path, lab_hss10, convention):
    hts = eval_htf(lab_hss10, default_grid(7.0, 25), n_keep=2, convention=convention)
    hts.harmonics[1][:2] = [complex(-0.0, 1.0), complex(1.0, -0.0)]
    path = tmp_path / "htf.csv"
    write_htf_csv(hts, path)
    back = read_htf_csv(path)
    assert back.convention == convention
    assert np.array_equal(back.omega_grid, hts.omega_grid)
    assert sorted(back.harmonics) == sorted(hts.harmonics)
    for n, vals in hts.harmonics.items():
        # bit for bit, signed zeros included
        assert back.harmonics[n].tobytes() == vals.tobytes()


@pytest.mark.parametrize(
    "table, fmt",
    [
        ([[1.0, -0.0, np.nan], [0.0, np.inf, -1e-300], [1 / 3, -np.inf, 2.0**60]], "%.17g"),
        ([[0.5, 3.0, -0.0, 1.0], [np.nan, -2.0, 1e16, 0.0]], ["%.17g", "%d", "%.17g", "%d"]),
        ([[6.283185307179586, -1.0, 0.1, -0.2]], ["%.17g", "%d", "%.17g", "%.17g"]),
    ],
)
def test_write_table_writes_the_bytes_of_savetxt(tmp_path, table, fmt):
    header = "a,b,c,d\n# a second header line"
    hss_module.write_table(tmp_path / "ours.csv", header, np.array(table), fmt=fmt)
    np.savetxt(tmp_path / "numpy.csv", table, fmt=fmt, delimiter=",", header=header, comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
