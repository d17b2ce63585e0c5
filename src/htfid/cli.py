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
the file is read.  `_check_config` then gives every setting the type of
its default and checks it once; the commands pass the typed values on
as they are, and each run echoes them to ``resolved_config.json`` in the
output directory.  Nothing written depends on wall-clock time or ambient
RNG state, so rerunning a command with the same inputs reproduces every
output byte for byte.

Exit codes: 0 success, 2 configuration or usage error (an unreadable
input file and a setting the library refuses included), 3 numerical
failure (no settling, singular solve, unusable data) or a malformed HTF
file.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, HtfidError, InvalidInputError
from .estimate import (
    DEFAULT_ALPHA,
    MIN_EXCITATION,
    EstimationProblem,
    check_design,
    estimate_htf,
    median,
    spectra,
)
from .excite import ChirpPlan, run_experiments
from .fit import FIT_N_H, ORDERS, fit_parameters
from .hss import (
    build_hss,
    default_grid,
    eval_htf,
    fourier_series,
    read_htf_csv,
    same_grid,
    write_htf_csv,
    write_table,
)
from .model import HybridModel, ModelParams, linearize, steps_in
from .sim import SETTLE_TOL, settle_limit_cycle

DEFAULT_CONFIG = {
    "model": ModelParams().to_dict(),
    "sim": {"dt": 1e-3, "n_cycles": 30, "settle_tol": SETTLE_TOL, "x_init": None},
    "chirp": {**dataclasses.asdict(ChirpPlan()), "warmup_periods": 1},
    "estimate": {
        "n_harmonics": 3,
        "alpha": DEFAULT_ALPHA,
        "band": [0.0, 7.0],
        "min_excitation": MIN_EXCITATION,
    },
    "theory": {
        "n_h": 10,
        "n_keep": 3,
        "f_hi": 7.0,
        "grid_points": 600,
        "convention": "input",
    },
    "fit": {"init_k": 150.0, "init_c": 1.0, "max_iter": 500, "n_h": FIT_N_H},
}

#: Lower bound of a numeric setting, as (bound, strict): a strict bound
#: must be exceeded, any other only reached.  The model and chirp
#: settings are checked by `ModelParams` and `ChirpPlan` themselves.
LOWER_BOUNDS = {
    "sim.n_cycles": (2, False),  # the last two periods are compared
    "sim.settle_tol": (0.0, True),
    "chirp.warmup_periods": (0, False),
    "estimate.n_harmonics": (0, False),
    "estimate.alpha": (0.0, False),
    "theory.n_h": (0, False),
    "theory.n_keep": (0, False),
    "theory.f_hi": (0.0, True),
    "theory.grid_points": (1, False),
    "fit.init_k": (0.0, True),
    "fit.init_c": (0.0, True),
    "fit.max_iter": (1, False),
    "fit.n_h": (max(ORDERS), False),  # the orders the fit reads
}

#: `compare`'s default tolerances, which `identify` also counts its
#: theory-versus-estimate bins against.
TOL_MAG_REL = 0.05
TOL_PHASE_DEG = 5.0


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


def _resolve(name: str, value, default):
    """`value` in the type of its default, checked against `LOWER_BOUNDS`.

    An integer default takes only an integral number, a float default any
    finite one.  A pair default takes two numbers, stored as floats:
    `estimate.band`, and `sim.x_init`, which may also stay null.  A string
    passes unchanged; `_check_config` checks it.
    """
    if isinstance(default, str):
        return value
    if default is None or isinstance(default, list):
        if value is None and default is None:
            return None
        if not (isinstance(value, list) and len(value) == 2):
            allowed = "null or " if default is None else ""
            raise ConfigError(f"{name} must be {allowed}a pair of numbers, not {value!r}")
        return [_resolve(f"{name}[{i}]", v, 0.0) for i, v in enumerate(value)]
    # Not bool: JSON true/false parse to a subclass of int.  The bound
    # also rejects nan, the infinities and integers beyond float range.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    if type(default) is int:
        if value != int(value):
            raise ConfigError(f"{name} must be an integer, not {value!r}")
        value = int(value)
    else:
        value = float(value)
    bound, strict = LOWER_BOUNDS.get(name, (-math.inf, False))
    if value < bound or (strict and value == bound):
        relation = "greater than" if strict else "at least"
        raise ConfigError(f"{name} must be {relation} {bound}, not {value!r}")
    return value


def _check_config(cfg: dict, args) -> dict:
    """Fold in the --alpha/--nh/--dt overrides and type every setting.

    Returns `cfg` with each value in the type of its `DEFAULT_CONFIG`
    default, the form the commands pass on and `resolved_config.json`
    records.  Raises `ConfigError` for a value of the wrong type, below
    its lower bound, or inconsistent with another setting, and
    `InvalidInputError` for settings that `ModelParams`, `ChirpPlan`,
    `steps_in` or (for `identify`) `check_design` refuse.
    """
    if args.alpha is not None:
        cfg["estimate"]["alpha"] = args.alpha
    if args.nh is not None:
        cfg["theory"]["n_h"] = cfg["estimate"]["n_harmonics"] = args.nh
    if args.dt is not None:
        cfg["sim"]["dt"] = args.dt
    for name, section in cfg.items():
        for key, value in section.items():
            section[key] = _resolve(f"{name}.{key}", value, DEFAULT_CONFIG[name][key])
    th = cfg["theory"]
    if args.nh is not None:
        th["n_keep"] = min(th["n_keep"], th["n_h"])
    if th["n_keep"] > th["n_h"]:
        raise ConfigError("theory.n_keep cannot exceed theory.n_h")
    if th["convention"] not in ("input", "output"):
        raise ConfigError("theory.convention must be 'input' or 'output'")
    lo, hi = cfg["estimate"]["band"]
    if not 0.0 <= lo < hi:
        raise ConfigError("estimate.band must be [lo_hz, hi_hz] with 0 <= lo < hi")
    # the dt check of settling, made before any output is written
    steps_in(ModelParams(**cfg["model"]).period, cfg["sim"]["dt"])
    ChirpPlan(**{k: v for k, v in cfg["chirp"].items() if k != "warmup_periods"})
    if args.command == "identify":
        # what the estimator and the fit would refuse only after every
        # record is integrated
        chirp, n_h = cfg["chirp"], cfg["estimate"]["n_harmonics"]
        if n_h < max(ORDERS):
            raise ConfigError(f"estimate.n_harmonics must reach the fit's orders {ORDERS}")
        periods = chirp["segment_duration"] * cfg["model"]["forcing_freq"]
        check_design(chirp["n_segments"], n_h, periods)
    return cfg


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _settle(cfg: dict):
    model = HybridModel(ModelParams(**cfg["model"]))
    sim = cfg["sim"]
    cycle = settle_limit_cycle(
        model, n_cycles=sim["n_cycles"], dt=sim["dt"], tol=sim["settle_tol"], x_init=sim["x_init"]
    )
    return model, cycle


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    model, cycle = _settle(cfg)
    orbit_path = os.path.join(out_dir, "orbit.csv")
    t = np.arange(cycle.n_samples) * cycle.dt
    write_table(orbit_path, "t,x,xdot", np.column_stack([t, cycle.x, cycle.xdot]))
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
    hss = build_hss(fourier_series(lin, th["n_h"]))
    grid = default_grid(th["f_hi"], th["grid_points"])
    hts = eval_htf(hss, grid, n_keep=th["n_keep"], convention=th["convention"])

    csv_path = os.path.join(out_dir, "htf_theory.csv")
    write_htf_csv(hts, csv_path)
    for n, g in sorted(hts.harmonics.items()):
        mag = np.hypot(g.real, g.imag)
        # scalar log10: numpy's differs from libm's in the last bit
        db = [20.0 * math.log10(m) if m > 0.0 else -math.inf for m in mag]
        write_table(
            os.path.join(out_dir, f"plot_h{n}.csv"),
            "omega_rad_s,f_hz,magnitude,magnitude_db,phase_deg",
            np.column_stack([grid, grid / (2.0 * math.pi), mag, db, np.degrees(np.angle(g))]),
        )
    kept = th["n_keep"]
    print(
        f"wrote {csv_path} plus plot data plot_h[-{kept}..{kept}].csv "
        f"({grid.size} points, n_h={th['n_h']}, {th['convention']} convention)"
    )
    for note in hts.warnings:
        print(f"note: {note}")
    return 0


def htf_diff(ref: dict, test: dict, used: dict, tol_mag: float, tol_phase: float):
    """Errors of `test` against `ref`, one harmonic order at a time.

    `ref` and `test` map each order n to values on one grid, and `used[n]`
    masks the bins that count.  Returns `errors[n] = (mag_rel, phase_deg)`
    on every bin, the magnitude error nan where the reference is exactly
    zero, and `stats[n]`: the number of used bins, the median and max of
    both errors over them, and how many of them exceed `tol_mag` or
    `tol_phase`.
    """
    errors, stats = {}, {}
    for n in sorted(used):
        g_ref, g_test = ref[n], test[n]
        # hypot and the explicit parts of test * conj(ref) round as scalar
        # complex arithmetic does; numpy's complex array loops may not.
        ref_mag = np.hypot(g_ref.real, g_ref.imag)
        mag_err = np.abs(np.hypot(g_test.real, g_test.imag) - ref_mag) / np.where(
            ref_mag > 0.0, ref_mag, np.nan
        )
        cross_re = g_test.real * g_ref.real + g_test.imag * g_ref.imag
        cross_im = g_test.imag * g_ref.real - g_test.real * g_ref.imag
        phase_err = np.degrees(np.abs(np.arctan2(cross_im, cross_re)))
        errors[n] = mag_err, phase_err
        bins = used[n]
        out = bins & ((mag_err > tol_mag) | (phase_err > tol_phase))
        stats[n] = {"bins": int(np.sum(bins)), "violations": int(np.sum(out))}
        if stats[n]["bins"]:
            stats[n].update(
                mag_rel_median=float(median(mag_err[bins])),
                mag_rel_max=float(np.max(mag_err[bins])),
                phase_deg_median=float(median(phase_err[bins])),
                phase_deg_max=float(np.max(phase_err[bins])),
            )
    return errors, stats


def _print_diff(stats: dict) -> None:
    for n, s in stats.items():
        if s["bins"] == 0:
            print(f"  n={n:+d}: no bins to compare")
            continue
        print(
            "  n=%+d: %3d bins, |G| err median %9.4g%%, phase err median %8.4g deg, "
            "%3d out of tolerance"
            % (n, s["bins"], 100.0 * s["mag_rel_median"], s["phase_deg_median"], s["violations"])
        )


def cmd_identify(cfg: dict, out_dir: str) -> int:
    model, cycle = _settle(cfg)
    lin = linearize(model, cycle)

    plan = dict(cfg["chirp"])
    warmup_periods = plan.pop("warmup_periods")
    records = run_experiments(model, cycle, ChirpPlan(**plan), warmup_periods=warmup_periods)

    est_cfg = cfg["estimate"]
    problem = EstimationProblem(
        records=[spectra(rec) for rec in records],
        n_harmonics=est_cfg["n_harmonics"],
        pump=2.0 * math.pi / cycle.T,
        alpha=est_cfg["alpha"],
        band_hz=tuple(est_cfg["band"]),
        min_excitation=est_cfg["min_excitation"],
    )
    est = estimate_htf(problem)
    est_path = os.path.join(out_dir, "htf_estimate.csv")
    write_htf_csv(est, est_path)
    _write_json(os.path.join(out_dir, "diagnostics.json"), est.diagnostics)

    th = cfg["theory"]
    n_h = max(th["n_h"], est.n_h_kept)
    theory = eval_htf(
        build_hss(fourier_series(lin, n_h)),
        est.omega_grid,
        n_keep=est.n_h_kept,
        convention="output",
    )
    used = {n: est.excitation_mask[n] & (np.abs(g) > 0.0) for n, g in theory.harmonics.items()}
    errors, stats = htf_diff(theory.harmonics, est.harmonics, used, TOL_MAG_REL, TOL_PHASE_DEG)
    diff_path = os.path.join(out_dir, "theory_vs_estimate.csv")
    blocks = []
    for n, (mag_err, phase_err) in errors.items():
        g_est, g_th = est.harmonics[n], theory.harmonics[n]
        blocks.append(
            np.column_stack(
                [est.omega_grid, np.full(g_est.size, n), g_est.real, g_est.imag, g_th.real]
                + [g_th.imag, mag_err, phase_err, est.excitation_mask[n]]
            )
        )
    write_table(
        diff_path,
        "omega_rad_s,n,est_re,est_im,theory_re,theory_im,mag_rel_err,phase_err_deg,excited",
        np.vstack(blocks),
        fmt=["%.17g", "%d"] + ["%.17g"] * 6 + ["%d"],
    )
    print("theory vs estimate on excited bins:")
    _print_diff(stats)

    fit_cfg = cfg["fit"]
    result = fit_parameters(
        est,
        (fit_cfg["init_k"], fit_cfg["init_c"]),
        lin.duty,
        lin.t_hat,
        cycle.T,
        m=model.params.m,
        max_iter=fit_cfg["max_iter"],
        n_h=fit_cfg["n_h"],
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


def cmd_compare(args) -> int:
    for flag, tol in (("--tol-mag", args.tol_mag), ("--tol-phase", args.tol_phase)):
        if not 0.0 <= tol < math.inf:
            raise ConfigError(f"{flag} must be finite and non-negative, not {tol!r}")
    settings = {
        "reference": args.reference,
        "candidate": args.candidate,
        "tol_mag_rel": args.tol_mag,
        "tol_phase_deg": args.tol_phase,
    }
    try:
        ref, test = read_htf_csv(args.reference), read_htf_csv(args.candidate)
    except OSError as exc:
        raise ConfigError(f"cannot read HTF file: {exc}") from exc
    if ref.convention != test.convention:
        raise InvalidInputError(
            f"{args.reference} is in the {ref.convention} convention and "
            f"{args.candidate} in the {test.convention} convention"
        )
    if not same_grid(ref.omega_grid, test.omega_grid):
        raise HtfidError(
            f"{args.reference} and {args.candidate} are sampled on different "
            "frequency grids; interpolate one of them first"
        )
    common = sorted(set(ref.harmonics) & set(test.harmonics))
    if not common:
        raise HtfidError("the two files share no harmonic orders")
    used = {n: np.abs(ref.harmonics[n]) > 0.0 for n in common}
    _, stats = htf_diff(ref.harmonics, test.harmonics, used, args.tol_mag, args.tol_phase)
    all_within = not any(s["violations"] for s in stats.values())
    print(
        "comparing %s against %s (tolerance %.3g relative magnitude, %.3g deg phase)"
        % (args.candidate, args.reference, args.tol_mag, args.tol_phase)
    )
    _print_diff(stats)
    for n in sorted(set(ref.harmonics) ^ set(test.harmonics)):
        only = args.reference if n in ref.harmonics else args.candidate
        print(f"  n={n:+d}: only in {only}, skipped")
    print("within tolerance: %s" % ("yes" if all_within else "no"))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "resolved_config.json"), {"command": "compare", **settings})
        report = {"harmonics": {str(n): s for n, s in stats.items()}, "within_tolerance": all_within}
        _write_json(os.path.join(args.out, "compare.json"), {**settings, **report})
        print(f"wrote {os.path.join(args.out, 'compare.json')}")
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
        default=TOL_MAG_REL,
        help=f"relative magnitude tolerance (default {TOL_MAG_REL})",
    )
    p_cmp.add_argument(
        "--tol-phase",
        type=float,
        default=TOL_PHASE_DEG,
        help=f"phase tolerance in degrees (default {TOL_PHASE_DEG})",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "compare":
            return cmd_compare(args)
        try:
            cfg = _check_config(load_config(args.config), args)
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, "resolved_config.json"), cfg)
            run = {"simulate": cmd_simulate, "htf-theory": cmd_htf_theory, "identify": cmd_identify}
            return run[args.command](cfg, args.out)
        except InvalidInputError as exc:
            # a setting the library refuses, such as a dt that does not
            # divide the forcing period, is a configuration error too
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HtfidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
