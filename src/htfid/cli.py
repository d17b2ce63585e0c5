"""Command-line pipeline: simulate, theory curves, identification, diffs.

Subcommands
-----------
simulate     settle the forced oscillator and export one orbit period
htf-theory   harmonic transfer functions of the switched linearization
identify     chirp experiments -> estimated HTFs -> (k, c) fit
compare      diff two HTF CSV files against magnitude/phase tolerances

Configuration is a JSON object with sections ``model``, ``sim``,
``chirp``, ``estimate``, ``theory`` and ``fit``; every key is optional
and falls back to the built-in defaults (the study configuration).
``--alpha``, ``--nh`` and ``--dt`` override the matching entries after
the file is read.  Each run echoes its exact effective settings to
``resolved_config.json`` in the output directory.  Nothing written
depends on wall-clock time or ambient RNG state, so rerunning a command
with the same inputs reproduces every output byte for byte.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure (no settling, singular solve, unusable data).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, HtfidError
from .estimate import DEFAULT_ALPHA, EstimationProblem, estimate_htf, spectra
from .excite import ChirpPlan, run_experiments
from .fit import fit_parameters
from .hss import (
    build_hss,
    default_grid,
    eval_htf,
    fourier_series,
    read_htf_csv,
    write_htf_csv,
)
from .model import HybridModel, ModelParams, linearize
from .sim import settle_limit_cycle

DEFAULT_CONFIG = {
    "model": ModelParams().to_dict(),
    "sim": {"dt": 1e-3, "n_cycles": 30, "settle_tol": 1e-6, "x_init": None},
    "chirp": {
        "amplitude": 0.004,
        "f_lo": 0.0,
        "f_hi": 7.0,
        "segment_duration": 30.0,
        "n_segments": 9,
        "warmup_periods": 1,
    },
    "estimate": {
        "n_harmonics": 3,
        "alpha": DEFAULT_ALPHA,
        "band": [0.0, 7.0],
        "min_excitation": 1e-3,
    },
    "theory": {
        "n_h": 10,
        "n_keep": 3,
        "f_hi": 7.0,
        "grid_points": 600,
        "convention": "input",
    },
    "fit": {"init_k": 150.0, "init_c": 1.0, "max_iter": 500, "n_h": 10},
}


def _merge_section(name: str, defaults: dict, override: dict) -> dict:
    unknown = sorted(set(override) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in config section '{name}'; "
            f"known keys: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(override)
    return merged


def load_config(path=None) -> dict:
    """Built-in defaults, optionally overlaid with a JSON config file."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as handle:
            user = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(user) - set(cfg))
    if unknown:
        raise ConfigError(
            f"unknown config section(s) {unknown}; known sections: {sorted(cfg)}"
        )
    for name, section in user.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section '{name}' must be a JSON object")
        cfg[name] = _merge_section(name, cfg[name], section)
    return cfg


def apply_overrides(cfg: dict, args) -> dict:
    """Fold --alpha/--nh/--dt into the loaded configuration."""
    if getattr(args, "alpha", None) is not None:
        if args.alpha < 0.0:
            raise ConfigError("--alpha must be non-negative")
        cfg["estimate"]["alpha"] = args.alpha
    if getattr(args, "nh", None) is not None:
        if args.nh < 0:
            raise ConfigError("--nh must be non-negative")
        cfg["theory"]["n_h"] = args.nh
        cfg["theory"]["n_keep"] = min(cfg["theory"]["n_keep"], args.nh)
        cfg["estimate"]["n_harmonics"] = args.nh
    if getattr(args, "dt", None) is not None:
        if args.dt <= 0.0:
            raise ConfigError("--dt must be positive")
        cfg["sim"]["dt"] = args.dt
    return cfg


def _check_config(cfg: dict) -> None:
    """Reject settings that violate module preconditions up front."""
    sim = cfg["sim"]
    if sim["dt"] <= 0.0:
        raise ConfigError("sim.dt must be positive")
    if int(sim["n_cycles"]) < 1:
        raise ConfigError("sim.n_cycles must be at least 1 (zero-duration run)")
    if sim["settle_tol"] <= 0.0:
        raise ConfigError("sim.settle_tol must be positive")
    x_init = sim.get("x_init")
    if x_init is not None:
        ok = (
            isinstance(x_init, (list, tuple))
            and len(x_init) == 2
            and all(isinstance(v, (int, float)) and math.isfinite(v) for v in x_init)
        )
        if not ok:
            raise ConfigError("sim.x_init must be null or a [position, velocity] pair")
    est = cfg["estimate"]
    if est["alpha"] < 0.0:
        raise ConfigError("estimate.alpha must be non-negative")
    if int(est["n_harmonics"]) < 0:
        raise ConfigError("estimate.n_harmonics must be non-negative")
    band = est["band"]
    if len(band) != 2 or not 0.0 <= float(band[0]) < float(band[1]):
        raise ConfigError("estimate.band must be [lo_hz, hi_hz] with 0 <= lo < hi")
    th = cfg["theory"]
    if int(th["n_h"]) < 0 or int(th["n_keep"]) < 0:
        raise ConfigError("theory.n_h and theory.n_keep must be non-negative")
    if int(th["n_keep"]) > int(th["n_h"]):
        raise ConfigError("theory.n_keep cannot exceed theory.n_h")
    if th["convention"] not in ("input", "output"):
        raise ConfigError("theory.convention must be 'input' or 'output'")
    if int(th["grid_points"]) < 1 or th["f_hi"] <= 0.0:
        raise ConfigError("theory grid needs grid_points >= 1 and f_hi > 0")
    fit_cfg = cfg["fit"]
    if fit_cfg["init_k"] <= 0.0 or fit_cfg["init_c"] <= 0.0:
        raise ConfigError("fit.init_k and fit.init_c must be positive")
    if int(fit_cfg["max_iter"]) < 1:
        raise ConfigError("fit.max_iter must be at least 1")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _prepare_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _settle(cfg: dict):
    model = HybridModel(ModelParams.from_dict(cfg["model"]))
    sim = cfg["sim"]
    x_init = sim.get("x_init")
    cycle = settle_limit_cycle(
        model,
        n_cycles=int(sim["n_cycles"]),
        dt=float(sim["dt"]),
        tol=float(sim["settle_tol"]),
        x_init=None if x_init is None else (float(x_init[0]), float(x_init[1])),
    )
    return model, cycle


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    model, cycle = _settle(cfg)
    orbit_path = os.path.join(out_dir, "orbit.csv")
    with open(orbit_path, "w", encoding="utf-8") as handle:
        handle.write("t,x,xdot\n")
        for j in range(cycle.n_samples):
            handle.write(
                "%.17g,%.17g,%.17g\n" % (j * cycle.dt, cycle.x[j], cycle.xdot[j])
            )
    summary = {
        "T": cycle.T,
        "dt": cycle.dt,
        "t_hat": cycle.t_hat,
        "duty": cycle.duty,
        "amplitude": cycle.amplitude,
        "x_mean": float(np.mean(cycle.x)),
        "residual_x": cycle.residual[0],
        "residual_xdot": cycle.residual[1],
        "n_crossings": cycle.n_crossings,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(
        "settled orbit: T = %g s, damper engages at %.6f s, duty %.6f, "
        "residual (%.3e, %.3e)"
        % (cycle.T, cycle.t_hat, cycle.duty, cycle.residual[0], cycle.residual[1])
    )
    print(f"wrote {orbit_path} and {os.path.join(out_dir, 'summary.json')}")
    return 0


def cmd_htf_theory(cfg: dict, out_dir: str) -> int:
    model, cycle = _settle(cfg)
    lin = linearize(model, cycle)
    th = cfg["theory"]
    hss = build_hss(fourier_series(lin, int(th["n_h"])))
    grid = default_grid(float(th["f_hi"]), int(th["grid_points"]))
    hts = eval_htf(hss, grid, n_keep=int(th["n_keep"]), convention=th["convention"])

    csv_path = os.path.join(out_dir, "htf_theory.csv")
    write_htf_csv(hts, csv_path)
    for n in sorted(hts.harmonics):
        values = hts.harmonics[n]
        plot_path = os.path.join(out_dir, f"plot_h{n}.csv")
        with open(plot_path, "w", encoding="utf-8") as handle:
            handle.write("omega_rad_s,f_hz,magnitude,magnitude_db,phase_deg\n")
            for omega, val in zip(grid, values):
                mag = abs(val)
                db = 20.0 * math.log10(mag) if mag > 0.0 else -math.inf
                handle.write(
                    "%.17g,%.17g,%.17g,%.17g,%.17g\n"
                    % (omega, omega / (2.0 * math.pi), mag, db, math.degrees(np.angle(val)))
                )
    kept = int(th["n_keep"])
    print(
        f"wrote {csv_path} plus plot data plot_h[-{kept}..{kept}].csv "
        f"({grid.size} points, n_h={int(th['n_h'])}, {th['convention']} convention)"
    )
    for note in hts.warnings:
        print(f"note: {note}")
    return 0


def _htf_errors(ref, test):
    """Relative magnitude error and phase error (deg) of test against ref.

    The magnitude error is nan wherever the reference is exactly zero.
    """
    ref = np.asarray(ref, dtype=complex)
    test = np.asarray(test, dtype=complex)
    # hypot and the explicit parts of test * conj(ref) round as scalar
    # complex arithmetic does; numpy's complex array loops may not.
    ref_mag = np.hypot(ref.real, ref.imag)
    mag_err = np.abs(np.hypot(test.real, test.imag) - ref_mag) / np.where(
        ref_mag > 0.0, ref_mag, np.nan
    )
    cross_re = test.real * ref.real + test.imag * ref.imag
    cross_im = test.imag * ref.real - test.real * ref.imag
    phase_err = np.degrees(np.abs(np.arctan2(cross_im, cross_re)))
    return mag_err, phase_err


def _diff_stats(mag_err: np.ndarray, phase_err: np.ndarray, used: np.ndarray) -> dict:
    """Summary of the errors on the `used` bins."""
    n_used = int(np.sum(used))
    if n_used == 0:
        return {"bins": 0}
    mag_err, phase_err = mag_err[used], phase_err[used]
    return {
        "bins": n_used,
        "mag_rel_median": float(np.median(mag_err)),
        "mag_rel_max": float(np.max(mag_err)),
        "phase_deg_median": float(np.median(phase_err)),
        "phase_deg_max": float(np.max(phase_err)),
    }


def cmd_identify(cfg: dict, out_dir: str) -> int:
    model, cycle = _settle(cfg)
    lin = linearize(model, cycle)

    ch = cfg["chirp"]
    plan = ChirpPlan(
        amplitude=float(ch["amplitude"]),
        f_lo=float(ch["f_lo"]),
        f_hi=float(ch["f_hi"]),
        segment_duration=float(ch["segment_duration"]),
        n_segments=int(ch["n_segments"]),
    )
    records = run_experiments(
        model,
        cycle,
        plan,
        dt=float(cfg["sim"]["dt"]),
        warmup_periods=int(ch["warmup_periods"]),
    )

    est_cfg = cfg["estimate"]
    problem = EstimationProblem(
        records=[spectra(rec) for rec in records],
        n_harmonics=int(est_cfg["n_harmonics"]),
        pump=2.0 * math.pi / cycle.T,
        alpha=float(est_cfg["alpha"]),
        band_hz=(float(est_cfg["band"][0]), float(est_cfg["band"][1])),
        min_excitation=float(est_cfg["min_excitation"]),
    )
    est = estimate_htf(problem)
    est_path = os.path.join(out_dir, "htf_estimate.csv")
    write_htf_csv(est, est_path)
    _write_json(os.path.join(out_dir, "diagnostics.json"), est.diagnostics)

    th = cfg["theory"]
    n_h = max(int(th["n_h"]), est.n_h_kept)
    theory = eval_htf(
        build_hss(fourier_series(lin, n_h)),
        est.omega_grid,
        n_keep=est.n_h_kept,
        convention="output",
    )
    diff_path = os.path.join(out_dir, "theory_vs_estimate.csv")
    print("theory vs estimate on excited bins:")
    with open(diff_path, "w", encoding="utf-8") as handle:
        handle.write(
            "omega_rad_s,n,est_re,est_im,theory_re,theory_im,"
            "mag_rel_err,phase_err_deg,excited\n"
        )
        for n in sorted(theory.harmonics):
            g_ref = theory.harmonics[n]
            g_est = est.harmonics[n]
            mask = est.excitation_mask[n]
            mag_err, phase_err = _htf_errors(g_ref, g_est)
            for i, omega in enumerate(est.omega_grid):
                handle.write(
                    "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
                    % (
                        omega,
                        n,
                        g_est[i].real,
                        g_est[i].imag,
                        g_ref[i].real,
                        g_ref[i].imag,
                        mag_err[i],
                        phase_err[i],
                        int(mask[i]),
                    )
                )
            stats = _diff_stats(mag_err, phase_err, mask & (np.abs(g_ref) > 0.0))
            if stats["bins"] == 0:
                print(f"  n={n:+d}: no excited bins")
                continue
            print(
                "  n=%+d: %3d bins, |G| err median %7.3f%% max %8.3f%%, "
                "phase err median %6.2f deg max %7.2f deg"
                % (
                    n,
                    stats["bins"],
                    100.0 * stats["mag_rel_median"],
                    100.0 * stats["mag_rel_max"],
                    stats["phase_deg_median"],
                    stats["phase_deg_max"],
                )
            )

    fit_cfg = cfg["fit"]
    result = fit_parameters(
        est,
        (float(fit_cfg["init_k"]), float(fit_cfg["init_c"])),
        lin.duty,
        lin.t_hat,
        cycle.T,
        m=model.params.m,
        max_iter=int(fit_cfg["max_iter"]),
        n_h=int(fit_cfg["n_h"]),
    )
    result.to_json(os.path.join(out_dir, "fit.json"))
    print(
        "fit: k = %.6g, c = %.6g (objective %.6e, %d iterations, converged=%s)"
        % (
            result.k_hat,
            result.c_hat,
            result.objective,
            result.iterations,
            result.converged,
        )
    )
    print(f"wrote {est_path}, {diff_path}, diagnostics.json and fit.json")
    return 0


def cmd_compare(args, out_dir) -> int:
    ref = read_htf_csv(args.reference)
    test = read_htf_csv(args.candidate)
    if ref.omega_grid.shape != test.omega_grid.shape or np.max(
        np.abs(ref.omega_grid - test.omega_grid)
    ) > 1e-9:
        raise HtfidError(
            f"{args.reference} and {args.candidate} are sampled on different "
            "frequency grids; interpolate one of them first"
        )
    common = sorted(set(ref.harmonics) & set(test.harmonics))
    if not common:
        raise HtfidError("the two files share no harmonic orders")
    only_ref = sorted(set(ref.harmonics) - set(test.harmonics))
    only_test = sorted(set(test.harmonics) - set(ref.harmonics))

    report = {
        "reference": args.reference,
        "candidate": args.candidate,
        "tol_mag_rel": args.tol_mag,
        "tol_phase_deg": args.tol_phase,
        "harmonics": {},
    }
    all_within = True
    print(
        "comparing %s against %s (tolerance %.3g relative magnitude, %.3g deg phase)"
        % (args.candidate, args.reference, args.tol_mag, args.tol_phase)
    )
    for n in common:
        g_ref = ref.harmonics[n]
        g_test = test.harmonics[n]
        mag_err, phase_err = _htf_errors(g_ref, g_test)
        usable = np.abs(g_ref) > 0.0
        stats = _diff_stats(mag_err, phase_err, usable)
        violations = int(
            np.sum(usable & ((mag_err > args.tol_mag) | (phase_err > args.tol_phase)))
        )
        stats["violations"] = violations
        report["harmonics"][str(n)] = stats
        if violations:
            all_within = False
        if stats["bins"] == 0:
            print(f"  n={n:+d}: no comparable bins (reference is zero)")
            continue
        print(
            "  n=%+d: %3d bins, |G| err median %.4g max %.4g, phase err "
            "median %.4g deg max %.4g deg, %d bin(s) out of tolerance"
            % (
                n,
                stats["bins"],
                stats["mag_rel_median"],
                stats["mag_rel_max"],
                stats["phase_deg_median"],
                stats["phase_deg_max"],
                violations,
            )
        )
    for n in only_ref:
        print(f"  n={n:+d}: only in {args.reference}, skipped")
    for n in only_test:
        print(f"  n={n:+d}: only in {args.candidate}, skipped")
    report["within_tolerance"] = all_within
    print("within tolerance: %s" % ("yes" if all_within else "no"))
    if out_dir is not None:
        _write_json(os.path.join(out_dir, "compare.json"), report)
        print(f"wrote {os.path.join(out_dir, 'compare.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htfid",
        description="Harmonic transfer function identification for the "
        "one-way-damper oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument(
            "--out", metavar="DIR", default=".", help="output directory (default: .)"
        )
        p.add_argument(
            "--alpha", type=float, help="override estimate.alpha (smoothing weight)"
        )
        p.add_argument(
            "--nh",
            type=int,
            help="override harmonic truncation (theory.n_h and estimate.n_harmonics)",
        )
        p.add_argument("--dt", type=float, help="override sim.dt (integrator step)")

    p_sim = sub.add_parser(
        "simulate", help="settle the forced oscillator and export one orbit period"
    )
    add_common(p_sim)
    p_th = sub.add_parser(
        "htf-theory",
        help="harmonic transfer functions of the switched linearization",
    )
    add_common(p_th)
    p_id = sub.add_parser(
        "identify", help="run chirp experiments, estimate HTFs and fit (k, c)"
    )
    add_common(p_id)
    p_cmp = sub.add_parser("compare", help="diff two HTF CSV files")
    p_cmp.add_argument("reference", help="reference HTF CSV")
    p_cmp.add_argument("candidate", help="candidate HTF CSV to check")
    p_cmp.add_argument("--out", metavar="DIR", default=None, help="write compare.json here")
    p_cmp.add_argument(
        "--tol-mag",
        type=float,
        default=0.05,
        help="relative magnitude tolerance (default 0.05)",
    )
    p_cmp.add_argument(
        "--tol-phase",
        type=float,
        default=5.0,
        help="phase tolerance in degrees (default 5.0)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "compare":
            out_dir = _prepare_out(args.out) if args.out is not None else None
            if out_dir is not None:
                _write_json(
                    os.path.join(out_dir, "resolved_config.json"),
                    {
                        "command": "compare",
                        "reference": args.reference,
                        "candidate": args.candidate,
                        "tol_mag_rel": args.tol_mag,
                        "tol_phase_deg": args.tol_phase,
                    },
                )
            return cmd_compare(args, out_dir)

        cfg = apply_overrides(load_config(args.config), args)
        _check_config(cfg)
        out_dir = _prepare_out(args.out)
        _write_json(os.path.join(out_dir, "resolved_config.json"), cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "htf-theory":
            return cmd_htf_theory(cfg, out_dir)
        return cmd_identify(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HtfidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
