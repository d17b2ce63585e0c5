"""Run the htfid CLI with spans around the calls into each layer.

Usage: python bench/trace_launcher.py TRACE_JSON [htfid CLI arguments...]

The package must be importable (``src`` on ``PYTHONPATH``).  Before
calling ``htfid.cli.main`` the launcher rebinds, in every loaded htfid
module, each name bound to one of the traced functions, so calls made
through ``from .x import f`` bindings are traced too.  Only module and
class attributes are rebound; no package file is changed.  The spans and
counts go to TRACE_JSON and the process exits with the CLI's exit code.
"""

import inspect
import json
import sys

import htfid.cli
import htfid.estimate
import htfid.excite
import htfid.fit
import htfid.hss
import htfid.model
import htfid.sim
from spans import Tracer

_INTEGRATE_SIG = inspect.signature(htfid.sim.integrate)


def _sim_steps(counts, args, kwargs, result):
    bound = _INTEGRATE_SIG.bind(*args, **kwargs)
    counts["sim.steps"] += int(round(bound.arguments["duration"] / bound.arguments["dt"]))


def _eval_work(counts, args, kwargs, result):
    hss = args[0] if args else kwargs["hss"]
    n, r, q = hss.n_states, hss.B.shape[1], hss.C.shape[0]
    points = result.omega_grid.size
    counts["hss.eval_points"] += points
    # Computed, not measured: complex LU (8/3 n^3 real flops), two
    # triangular solves for r right-hand sides (8 n^2 r) and C @ X
    # (8 q n r) per grid point.  Condition estimates and nudged re-solves
    # are left out.
    counts["hss.solve_flops"] += points * (8 * n**3 / 3 + 8 * n * n * r + 8 * q * n * r)


def _n_states(counts, args, kwargs, result):
    counts["hss.n_states"] = max(counts["hss.n_states"], result.n_states)


def _iterations(counts, args, kwargs, result):
    counts["fit.iterations"] += result.iterations


def _records(counts, args, kwargs, result):
    counts["excite.records"] += len(result)


def _unknowns(counts, args, kwargs, result):
    diag = result.diagnostics
    counts["estimate.bins"] += diag["n_bins"]
    counts["estimate.unknowns"] += diag["n_bins"] * (2 * diag["n_harmonics"] + 1)


#: (module, attribute, span name, count hook) for every traced function.
TRACED = [
    (htfid.sim, "settle_limit_cycle", "sim.settle", None),
    (htfid.sim, "integrate", "sim.integrate", _sim_steps),
    (htfid.sim, "error_trajectory", "sim.error_trajectory", None),
    (htfid.excite, "run_experiments", "excite.run_experiments", _records),
    (htfid.estimate, "spectra", "estimate.spectra", None),
    (htfid.estimate, "estimate_htf", "estimate.estimate_htf", _unknowns),
    (htfid.estimate, "build_regressor", "estimate.build_regressor", None),
    (htfid.hss, "fourier_series", "hss.fourier_series", None),
    (htfid.hss, "build_hss", "hss.build_hss", _n_states),
    (htfid.hss, "eval_htf", "hss.eval", _eval_work),
    (htfid.hss, "write_htf_csv", "cli.write", None),
    (htfid.fit, "fit_parameters", "fit.fit_parameters", _iterations),
    (htfid.model, "linearize", "model.linearize", None),
]

def _rebind(original, replacement):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "htfid"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Rebind the traced functions in every htfid module."""
    for module, attr, name, hook in TRACED:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, hook))
    fit_result = htfid.fit.FitResult
    fit_result.to_json = tracer.wrap("cli.write", fit_result.to_json)


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli", htfid.cli.main)(cli_args)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
