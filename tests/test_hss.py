"""Square-wave coefficients, harmonic state space assembly, and eval_htf."""

import math

import numpy as np
import pytest

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

from conftest import relerr


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
        # input/output paths carry no modulation
        assert not fs.B[3 + n].any() and not fs.C[3 + n].any()
    assert np.array_equal(fs.B[3], [[0.0], [1.0]])
    assert np.array_equal(fs.C[3], [[1.0, 0.0]])
    assert not fs.D.any()


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


def test_eval_htf_validation(lab_hss10):
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([]))
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, default_grid(7.0, 10), n_keep=11)
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([1.0, np.nan]))
    with pytest.raises(InvalidInputError):
        eval_htf(lab_hss10, np.array([1.0]), dA=[np.eye(2)])


def test_eval_htf_singular_frequency_is_nudged(lab_cycle):
    # the undamped system pole sits exactly on one grid point, in the
    # middle of the second of three batches
    lin = linearize(HybridModel(ModelParams(c=0.0)), lab_cycle)
    hss = build_hss(fourier_series(lin, 2))
    step = hss_module._BATCH_ENTRIES // hss.n_states**2
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


def test_eval_htf_raises_when_nudge_stays_singular():
    # poles at w0 and at the nudged w0: the retry is singular too
    w0 = 3.0
    poles = 1j * np.array([w0, w0 * (1.0 + hss_module.SINGULAR_NUDGE)])
    hss = TruncatedHSS(
        n_h=0,
        pump=2.0 * math.pi,
        A=np.diag(poles),
        N=np.zeros((2, 2), dtype=complex),
        B=np.ones((2, 1), dtype=complex),
        C=np.ones((1, 2), dtype=complex),
        D=np.zeros((1, 1), dtype=complex),
    )
    with pytest.raises(SingularFrequencyError, match="omega=3$"):
        eval_htf(hss, np.array([1.0, w0]))


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
