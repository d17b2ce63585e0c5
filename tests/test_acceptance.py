"""Acceptance gate: six end-to-end criteria with pinned tolerances.

Each test prints exactly one `CRITERION n: PASS/FAIL` line (visible in
the -rA summary) before asserting, so a red test still reports the
measured numbers it failed on.
"""

import dataclasses
import hashlib
import math
import time

import numpy as np

from htfid import (
    ChirpPlan,
    EstimationProblem,
    ExperimentRecord,
    HybridModel,
    ModelParams,
    Trajectory,
    build_hss,
    build_regressor,
    chirp_value,
    default_grid,
    estimate_htf,
    eval_htf,
    fit_parameters,
    fourier_series,
    integrate,
    linearize,
    run_experiments,
    second_difference,
    settle_limit_cycle,
    spectra,
    write_htf_csv,
)
from htfid.model import SwitchedLinearization


def wrap_deg(a):
    return np.abs((a + 180.0) % 360.0 - 180.0)


def test_criterion_1_limit_cycle():
    t0 = time.perf_counter()
    cycle = settle_limit_cycle(HybridModel(), n_cycles=30, dt=1e-3, tol=1e-6)
    elapsed = time.perf_counter() - t0
    ok = (
        cycle.T == 1.0
        and max(cycle.residual) < 1e-6
        and elapsed < 5.0
    )
    print(
        "CRITERION 1: %s — settled in %.3f s, T=%.1f s, residual=(%.2e, %.2e)"
        % ("PASS" if ok else "FAIL", elapsed, cycle.T, *cycle.residual)
    )
    assert cycle.T == 1.0
    assert cycle.residual[0] < 1e-6 and cycle.residual[1] < 1e-6
    assert elapsed < 5.0


def test_criterion_2_undamped_oracle():
    k = 200.0
    model = HybridModel(ModelParams(c=0.0))
    x_eq = 0.2 - 9.81 / k
    dev_gain = 1.0 / (k - 4.0 * math.pi**2)  # forced response coefficient
    cycle = settle_limit_cycle(model, x_init=(x_eq + dev_gain, 0.0))

    # --- theory side: every harmonic but G_0 vanishes and G_0 is the FRF
    grid = default_grid(7.0, 600)
    hts = eval_htf(build_hss(fourier_series(linearize(model, cycle), 10)), grid, n_keep=3)
    frf = 1.0 / (k - grid**2)
    off_res = np.abs(k - grid**2) > 1.0
    theory_rel = float(
        np.max(np.abs(hts.harmonics[0][off_res] - frf[off_res]) / np.abs(frf[off_res]))
    )
    off_peak = max(
        float(np.max(np.abs(hts.harmonics[n]))) for n in range(-3, 4) if n != 0
    )

    # --- pipeline side.  Without damping the start-up free response never
    # decays, so no warm-up can erase it: each record must instead begin in
    # the exact periodic deviation state of the repeated chirp.
    dt = 1e-3
    plan = ChirpPlan()
    u = chirp_value(plan, dt * np.arange(30_000))
    freq = 2.0 * math.pi * np.fft.fftfreq(u.size, dt)
    H = np.zeros_like(freq, dtype=complex)
    nz = freq != 0.0
    H[nz] = 1.0 / (k - freq[nz] ** 2)
    H[~nz] = 1.0 / k
    U_full = np.fft.fft(u)
    xi_ss = np.fft.ifft(H * U_full).real
    vi_ss = np.fft.ifft(1j * freq * H * U_full).real
    traj = integrate(
        model,
        (x_eq + dev_gain + xi_ss[0], vi_ss[0]),
        lambda t: chirp_value(plan, t % 30.0),
        30.0,
        dt,
    )
    t = np.arange(u.size) * dt
    dev = traj.x[: u.size] - (x_eq + dev_gain * np.cos(2.0 * math.pi * t))
    zeros = np.zeros_like(u)
    records = spectra(
        [
            ExperimentRecord(
                index=r,
                clock_phase=r / 9.0,
                traj=Trajectory(dt=dt, t0=0.0, x=dev, xdot=zeros, u=u),
            )
            for r in range(9)
        ]
    )
    # the undamped resonance is razor thin; the default curvature weight
    # would flatten it, so the null test runs nearly unregularized
    problem = EstimationProblem(
        records=records, n_harmonics=3, pump=2.0 * math.pi, alpha=1e-12
    )
    est = estimate_htf(problem)
    live = est.excitation_mask[0]
    est_rel = float(
        np.max(
            np.abs(np.abs(est.harmonics[0][live]) - np.abs(1.0 / (k - est.omega_grid[live] ** 2)))
            / np.abs(1.0 / (k - est.omega_grid[live] ** 2))
        )
    )

    ok = theory_rel < 1e-9 and off_peak < 1e-10 and est_rel < 0.02
    print(
        "CRITERION 2: %s — theory G_0 vs FRF %.2e (<1e-9), max off-harmonic %.2e "
        "(<1e-10), estimated |G_0| error %.3e%% (<2%%)"
        % ("PASS" if ok else "FAIL", theory_rel, off_peak, 100.0 * est_rel)
    )
    assert theory_rel < 1e-9
    assert off_peak < 1e-10
    assert est_rel < 0.02


def test_criterion_3_truncation(lab_lin):
    grid = default_grid(7.0, 600)  # (0, 14*pi] rad/s
    hss10 = build_hss(fourier_series(lab_lin, 10))
    h3 = eval_htf(build_hss(fourier_series(lab_lin, 3)), grid, n_keep=3)
    h10 = eval_htf(hss10, grid, n_keep=3)
    trunc_rel = {
        n: float(
            np.max(
                np.abs(np.abs(h3.harmonics[n]) - np.abs(h10.harmonics[n]))
                / np.abs(h10.harmonics[n])
            )
        )
        for n in (-1, 0, 1)
    }
    full = eval_htf(hss10, grid, n_keep=10)
    peak = float(np.max(np.abs(full.harmonics[0])))
    tail = max(
        float(np.max(np.abs(full.harmonics[n])))
        for n in range(-10, 11)
        if abs(n) > 3
    )
    tail_ratio = tail / peak
    ok = max(trunc_rel.values()) < 0.01 and tail_ratio < 0.01
    print(
        "CRITERION 3: %s — n_h 3 vs 10 on G_0,G_±1 max %.3f%% (<1%%); "
        "max |G_n| for |n|>3 is %.3f%% of peak |G_0| (<1%%)"
        % ("PASS" if ok else "FAIL", 100 * max(trunc_rel.values()), 100 * tail_ratio)
    )
    assert max(trunc_rel.values()) < 0.01
    # The order-5 square-wave line lands its image on the resonance and
    # gets amplified past the budget; measured ~2.2%.  Kept as specified
    # rather than loosened -- see the decisions log.
    assert tail_ratio < 0.01


def test_criterion_4_end_to_end_estimation():
    t0 = time.perf_counter()
    model = HybridModel()
    cycle = settle_limit_cycle(model)
    recs = run_experiments(model, cycle, ChirpPlan(warmup_periods=1))
    problem = EstimationProblem(
        records=spectra(recs),
        n_harmonics=3,
        pump=2.0 * math.pi / cycle.T,
    )
    est = estimate_htf(problem)
    elapsed = time.perf_counter() - t0

    theory = eval_htf(
        build_hss(fourier_series(linearize(model, cycle), 10)),
        est.omega_grid,
        n_keep=3,
        convention="output",
    )
    keep = np.abs(est.omega_grid - math.sqrt(200.0)) > 0.5  # resonance exclusion
    stats = {}
    for n in (-1, 0, 1):
        live = est.excitation_mask[n] & keep
        g_est = est.harmonics[n][live]
        g_th = theory.harmonics[n][live]
        mag = np.abs(np.abs(g_est) - np.abs(g_th)) / np.abs(g_th)
        phase = wrap_deg(
            np.degrees(np.angle(g_est)) - np.degrees(np.angle(g_th))
        )
        stats[n] = (
            int(np.sum((mag > 0.05) | (phase > 5.0))),
            float(np.max(mag)),
            float(np.max(phase)),
        )

    # known unreliable band: images through the resonance leave G_{+/-2}
    # untrustworthy near 12-15 rad/s; report, don't gate
    report = []
    for n in (-2, 2):
        live = est.excitation_mask[n] & (est.omega_grid >= 12.0) & (est.omega_grid <= 15.0)
        mag = np.abs(
            np.abs(est.harmonics[n][live]) - np.abs(theory.harmonics[n][live])
        ) / np.abs(theory.harmonics[n][live])
        report.append("G_%+d: median %.1f%%, max %.1f%%" % (n, 100 * np.median(mag), 100 * np.max(mag)))

    viol = {n: stats[n][0] for n in stats}
    ok = all(v == 0 for v in viol.values()) and elapsed < 60.0
    shown = {n: "(%d, %.4g, %.4g)" % s for n, s in stats.items()}
    print(
        "CRITERION 4: %s — %.1f s pipeline (<60 s); violations/max-mag/max-phase "
        "per harmonic: n=-1 %s, n=0 %s, n=+1 %s; permitted 12-15 rad/s mismatch %s"
        % (
            "PASS" if ok else "FAIL",
            elapsed,
            shown[-1],
            shown[0],
            shown[1],
            "; ".join(report),
        )
    )
    assert elapsed < 60.0
    assert viol[0] == 0, "G_0 outside 5%/5deg on excited bins"
    # Measured budget (tests/test_estimate_oracle.py, counted as here
    # against the exact HTF): records synthesised from the exact HTF of
    # orders |n| <= 3 give 0/0/0 at this alpha, so the penalty costs no
    # violation.  Three shares make up the rest:
    # - aliasing, 58/0/26: the 9 records start at clock phases k/9 of the
    #   period, so orders n and n +/- 9 share one regressor column (at
    #   alpha = 0 the estimate is their closed-form sum, gated there);
    #   records synthesised from true orders |n| <= 10 give 58/0/26;
    # - distortion, about 13/0/35-43: it grows with the chirp amplitude;
    #   at A = 0.001 (alpha scaled by (A/0.004)^2) the records give
    #   57/0/39, close to the aliasing floor;
    # - integrator, 0: at dt = 0.5 ms the records give 71/0/69 again.
    # Kept as specified rather than loosened.
    assert viol[-1] == 0, "G_-1 outside 5%/5deg on excited bins"
    assert viol[1] == 0, "G_+1 outside 5%/5deg on excited bins"


def test_criterion_5_parametric_fit(lab_cycle, lab_estimate):
    res = fit_parameters(
        lab_estimate, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T
    )

    lin = SwitchedLinearization(
        A_on=np.array([[0.0, 1.0], [-200.0, -2.0]]),
        A_off=np.array([[0.0, 1.0], [-200.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        D=np.array([[0.0]]),
        duty=lab_cycle.duty,
        t_hat=lab_cycle.t_hat,
        T=lab_cycle.T,
    )
    target = eval_htf(
        build_hss(fourier_series(lin, 10)),
        lab_estimate.omega_grid,
        n_keep=1,
        convention="output",
    )
    crime = fit_parameters(
        target, (150.0, 1.0), lab_cycle.duty, lab_cycle.t_hat, lab_cycle.T
    )
    crime_err = max(abs(crime.k_hat - 200.0) / 200.0, abs(crime.c_hat - 2.0) / 2.0)

    ok = (
        198.0 <= res.k_hat <= 202.0
        and 1.9 <= res.c_hat <= 2.3
        and crime_err < 1e-3
    )
    print(
        "CRITERION 5: %s — pipeline fit k=%.4f c=%.4f (brackets [198,202]/[1.9,2.3]); "
        "noiseless re-fit error %.5f%% (<0.1%%)"
        % ("PASS" if ok else "FAIL", res.k_hat, res.c_hat, 100 * crime_err)
    )
    assert 198.0 <= res.k_hat <= 202.0
    assert 1.9 <= res.c_hat <= 2.3
    assert crime_err < 1e-3


def test_criterion_6_property_suites(
    tmp_path, lab_hss10, lab_problem, lab_estimate
):
    # energy conservation, lossless LTI case
    p = ModelParams(c=0.0, forcing_amplitude=0.0)
    tr = integrate(HybridModel(p), (0.25, 0.0), None, 10.0, 1e-3)
    energy = 0.5 * tr.xdot**2 + 0.5 * p.k * (tr.x - p.x0) ** 2 + p.g * tr.x
    energy_rel = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))

    # closed-form damped oscillator (damper pinned on)
    model = HybridModel(ModelParams(forcing_amplitude=0.0), threshold=lambda x, v: 1.0)
    a, x_eq = 0.05, 0.2 - 9.81 / 200.0
    tr2 = integrate(model, (x_eq + a, 0.0), None, 5.0, 1e-3)
    t = tr2.times()
    w_d = math.sqrt(200.0 - 1.0)
    closed = x_eq + np.exp(-t) * (a * np.cos(w_d * t) + (a / w_d) * np.sin(w_d * t))
    closed_err = float(np.max(np.abs(tr2.x - closed)))

    # conjugate symmetry, theoretical
    grid = default_grid(7.0, 60)
    pos = eval_htf(lab_hss10, grid, n_keep=3)
    neg = eval_htf(lab_hss10, -grid, n_keep=3)
    theory_sym = max(
        float(np.max(np.abs(neg.harmonics[n] - np.conj(pos.harmonics[-n]))))
        for n in range(-3, 4)
    )

    # conjugate symmetry, estimated (per-bin exact solve at +/- the bin)
    uncoupled = dataclasses.replace(lab_problem, alpha=0.0)
    spacing = lab_problem.records[0].bin_spacing
    est_sym = 0.0
    for q in (40, 100, 177):
        gp, *_ = np.linalg.lstsq(*build_regressor(uncoupled, q * spacing), rcond=None)
        gm, *_ = np.linalg.lstsq(*build_regressor(uncoupled, -q * spacing), rcond=None)
        est_sym = max(
            est_sym,
            float(np.max(np.abs(gm - np.conj(gp[::-1])))) / float(np.max(np.abs(gp))),
        )

    # second-difference stencil exact on degree <= 1
    d2 = second_difference(7)
    stencil_exact = not (d2 @ np.ones(7)).any() and not (d2 @ np.arange(7.0)).any()

    # determinism by hashing artifacts of repeated runs
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_htf_csv(eval_htf(lab_hss10, grid, n_keep=3), a_path)
    write_htf_csv(eval_htf(lab_hss10, grid, n_keep=3), b_path)
    hash_theory = (
        hashlib.sha256(a_path.read_bytes()).hexdigest()
        == hashlib.sha256(b_path.read_bytes()).hexdigest()
    )
    again = estimate_htf(lab_problem)
    hash_estimate = all(
        np.array_equal(again.harmonics[n], lab_estimate.harmonics[n])
        for n in lab_estimate.harmonics
    )

    ok = (
        energy_rel < 1e-6
        and closed_err < 1e-6
        and theory_sym < 1e-8
        and est_sym < 1e-10
        and stencil_exact
        and hash_theory
        and hash_estimate
    )
    print(
        "CRITERION 6: %s — energy %.1e (<1e-6), closed form %.1e (<1e-6), "
        "conj sym theory %.1e (<1e-8) / estimate %.1e, stencil exact %s, "
        "deterministic hashes %s"
        % (
            "PASS" if ok else "FAIL",
            energy_rel,
            closed_err,
            theory_sym,
            est_sym,
            stencil_exact,
            hash_theory and hash_estimate,
        )
    )
    assert energy_rel < 1e-6
    assert closed_err < 1e-6
    assert theory_sym < 1e-8
    assert est_sym < 1e-10
    assert stencil_exact
    assert hash_theory and hash_estimate
