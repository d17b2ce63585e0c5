"""htfid benchmark: the real CLI, timed end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh ``python -m htfid.cli`` process with ``src``
on ``PYTHONPATH``, run as a closed loop (one command at a time, the next
only after the previous one exits) until ``S`` seconds have passed.
Every user invocation pays interpreter start-up and imports, so every
operation does too.  BLAS thread settings are inherited, not set; they
are recorded with the result.

``--trace 0`` reports the end-to-end metrics.  On a shared host the
speed of pure-Python code drifts by about 20 % from one minute to the
next.  For a workload whose time follows that drift, the benchmark runs
a fixed pure-Python reference task in its own process before each
operation and once after the last, and scales each operation's wall and
CPU time by ``REFERENCE_NOMINAL_S`` over the mean of the two reference
timings around it (``run_adj_s``, ``cpu_adj_s``).  Other workloads
report those two metrics unscaled.

``--trace 1`` runs pairs of one untraced operation and one operation
under ``trace_launcher.py`` (which records spans around the calls into
each layer) and reports the per-layer metrics plus the tracing overhead.
The workloads have no random inputs; the seed orders the operations and
is recorded.

Every operation is checked: exit code 0, every artifact present,
parseable and finite, artifact bytes equal to the first operation's,
and for ``identify`` the fitted (k, c) inside the criterion-5 brackets.
``theory_err`` compares the HSS theory the CLI wrote with the exact HTF
from ``oracle.py``; ``theory-dense`` fails above 1e-5.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's
environment, samples and per-layer breakdown go to
``.bench_work/results/``.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# CLI arguments per workload.  identify-default is the paper's experiment,
# where the RK4 simulator dominates and the fit's small HSS solves do most
# of the rest; theory-dense bypasses the simulator and spends its time in
# large LAPACK solves.  Each optimisation of one of the two therefore has
# a workload that exercises it and one that does not.
WORKLOADS = {
    "identify-default": ["identify"],
    "theory-dense": ["htf-theory", "--nh", "40"],
}
#: Workloads whose times are scaled by the pure-Python reference task.  On
#: a shared VM the identify time follows the host's pure-Python speed; the
#: LAPACK-bound theory-dense time does not, and scaling it only adds the
#: reference's own noise (bench/README.md has the measurements).
DRIFT_ADJUSTED = {"identify-default"}

#: Number of import-only children whose median is setup_s.
SETUP_PROBES = 5
#: Fewest operations in a --trace 0 run, so that the median sets aside an
#: operation the host stalled (one identify operation once took 72 s
#: instead of 13 s and would otherwise have been the whole run).
MIN_OPS = 3
#: RK4 steps of the reference task, and the time it takes at the host
#: speed that adjusted times are expressed at (about its fastest time on
#: the 2-vCPU VM the benchmark was tuned on; 1.0-1.5 s there).
REFERENCE_STEPS = 1_000_000
REFERENCE_NOMINAL_S = 1.0
#: Artifacts that hold timings and so may differ between operations.
TIMING_FILES = {"run_report.json"}
#: Criterion-5 brackets for the fitted stiffness and damping.
K_BRACKET = (198.0, 202.0)
C_BRACKET = (1.9, 2.3)
#: Criterion-4 resonance exclusion (rad/s) and tolerances.
RESONANCE_EXCLUSION = 0.5
TOL_MAG = 0.05
TOL_PHASE_DEG = 5.0
THEORY_ERR_LIMIT = 1e-5
#: Value reported for an accuracy metric that a workload does not produce
#: (theory-dense runs no estimate and no fit).  Constant, so it never
#: moves, and non-zero, so relative bounds stay defined.
NOT_APPLICABLE = 1.0
NOT_APPLICABLE_ON_THEORY = ("fit_k_rel_err", "fit_c_rel_err", "g0_mag_err_max", "g1_bins_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_adj_s": "s",
    "cpu_adj_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "fraction",
    "fit_k_rel_err": "ratio",
    "fit_c_rel_err": "ratio",
    "g0_mag_err_max": "ratio",
    "g1_bins_out": "count",
    "theory_err": "ratio",
}

PER_LAYER_UNITS = {
    "sim.settle_s": "s",
    "sim.integrate_s": "s",
    "sim.integrate_calls": "count",
    "sim.steps": "count",
    "sim.steps_per_s": "1/s",
    "sim.error_trajectory_s": "s",
    "excite.run_experiments_s": "s",
    "excite.self_s": "s",
    "excite.records": "count",
    "hss.eval_s": "s",
    "hss.eval_calls": "count",
    "hss.eval_points": "count",
    "hss.points_per_s": "1/s",
    "hss.build_s": "s",
    "hss.n_states": "count",
    "hss.solve_flops": "flop",
    "fit.fit_parameters_s": "s",
    "fit.self_s": "s",
    "fit.objective_evals": "count",
    "fit.iterations": "count",
    "fit.evals_per_iteration": "ratio",
    "estimate.spectra_s": "s",
    "estimate.estimate_htf_s": "s",
    "estimate.regressor_calls": "count",
    "estimate.bins": "count",
    "estimate.unknowns": "count",
    "model.linearize_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "fraction",
}


class CheckFailed(Exception):
    """An operation's output is missing, malformed or wrong."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, log_dir: Path) -> dict:
    """Run ``cmd`` to completion; wall time, CPU time and peak RSS of the child."""
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "run_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def measure_setup(run_dir: Path) -> float:
    """Spawn to ``import htfid.cli`` done, seconds for one child."""
    probe_dir = run_dir / "setup"
    probe_dir.mkdir(exist_ok=True)
    sample = spawn([sys.executable, "-c", "import htfid.cli"], probe_dir)
    if sample["exit"] != 0:
        raise CheckFailed("import htfid.cli failed: " + (probe_dir / "stderr.txt").read_text())
    return sample["run_s"]


def reference_task() -> dict:
    """Wall and CPU time of a fixed pure-Python task (no htfid code).

    A damped oscillator integrated with RK4 in Python floats: the same
    kind of interpreter-bound work as the simulator.
    """
    x, v, h = 1.0, 0.0, 1e-3
    wall, cpu = time.perf_counter(), time.process_time()

    def f(x, v):
        return v, -200.0 * x - 2.0 * v

    for _ in range(REFERENCE_STEPS):
        k1x, k1v = f(x, v)
        k2x, k2v = f(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = f(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = f(x + h * k3x, v + h * k3v)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return {"run_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}


def adjusted(ops, refs, key: str) -> float:
    """Median over operations of ``op[key]``, scaled by the references around it.

    Without references (a workload not in ``DRIFT_ADJUSTED``) the plain
    median.  Reference ``i`` ran just before operation ``i``.
    """
    if not refs:
        return statistics.median(op[key] for op in ops)
    return statistics.median(
        op[key] * REFERENCE_NOMINAL_S / (0.5 * (refs[op["index"]][key] + refs[op["index"] + 1][key]))
        for op in ops
    )


def run_op(run_dir: Path, index: int, cli_args, traced: bool) -> dict:
    op_dir = run_dir / f"op{index:03d}"
    op_dir.mkdir()
    out_dir = op_dir / "out"
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_launcher.py"), str(op_dir / "trace.json")]
    else:
        cmd = [sys.executable, "-m", "htfid.cli"]
    sample = spawn(cmd + list(cli_args) + ["--out", str(out_dir)], op_dir)
    sample.update(index=index, traced=traced, dir=op_dir)
    return sample


def artifacts(out_dir: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in TIMING_FILES
    }


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def load_json(out_dir: Path, name: str):
    try:
        data = json.loads((out_dir / name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{name}: {exc}") from exc
    if not _finite_json(data):
        raise CheckFailed(f"{name}: non-finite value")
    return data


def load_csv(out_dir: Path, name: str, columns: int, undefined=None) -> np.ndarray:
    """Rows of a CSV artifact, all finite except where ``undefined(data)`` allows NaN."""
    try:
        data = np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{name}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != columns:
        raise CheckFailed(f"{name}: expected rows of {columns} columns, got {data.shape}")
    finite = np.isfinite(data)
    if undefined is not None:
        finite |= np.isnan(data) & undefined(data)
    if not np.all(finite):
        raise CheckFailed(f"{name}: non-finite value")
    return data


def _zero_theory_mag_err(data: np.ndarray) -> np.ndarray:
    """theory_vs_estimate.csv: mag_rel_err is NaN by definition where theory is 0."""
    mask = np.zeros(data.shape, dtype=bool)
    mask[:, 6] = (data[:, 4] == 0.0) & (data[:, 5] == 0.0)
    return mask


def by_order(data: np.ndarray):
    """``(grid, {n: rows sorted by omega})`` from rows ``omega, n, ...``."""
    out = {}
    grid = None
    for n in np.unique(data[:, 1]).astype(int):
        rows = data[data[:, 1] == n]
        rows = rows[np.argsort(rows[:, 0])]
        if grid is None:
            grid = rows[:, 0]
        elif rows.shape[0] != grid.shape[0] or np.max(np.abs(rows[:, 0] - grid)) > 1e-9:
            raise CheckFailed(f"harmonic {n} is on a different grid")
        out[int(n)] = rows
    return grid, out


def complex_column(rows: dict, re_col: int) -> dict:
    return {n: r[:, re_col] + 1j * r[:, re_col + 1] for n, r in rows.items()}


def linearisation(cfg: dict):
    """The CLI's settled orbit and linearisation for a resolved config."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from htfid.model import HybridModel, ModelParams, linearize
    from htfid.sim import settle_limit_cycle

    model = HybridModel(ModelParams.from_dict(cfg["model"]))
    sim = cfg["sim"]
    x_init = sim["x_init"]
    cycle = settle_limit_cycle(
        model,
        n_cycles=int(sim["n_cycles"]),
        dt=float(sim["dt"]),
        tol=float(sim["settle_tol"]),
        x_init=None if x_init is None else (float(x_init[0]), float(x_init[1])),
    )
    return linearize(model, cycle)


def theory_error(cfg: dict, grid, hss_values: dict, convention: str) -> float:
    from oracle import exact_htf, relative_error

    exact = exact_htf(linearisation(cfg), grid, sorted(hss_values), convention)
    return relative_error(exact, hss_values)


def check_identify(out_dir: Path) -> dict:
    """Validate identify artifacts; accuracy metrics from them."""
    cfg, _, fit = (
        load_json(out_dir, name)
        for name in ("resolved_config.json", "diagnostics.json", "fit.json")
    )
    load_csv(out_dir, "htf_estimate.csv", 4)
    k_hat, c_hat = float(fit["k_hat"]), float(fit["c_hat"])
    if not (K_BRACKET[0] <= k_hat <= K_BRACKET[1] and C_BRACKET[0] <= c_hat <= C_BRACKET[1]):
        raise CheckFailed(f"fit k={k_hat}, c={c_hat} outside {K_BRACKET} x {C_BRACKET}")
    k_true, c_true = float(cfg["model"]["k"]), float(cfg["model"]["c"])
    m = float(cfg["model"]["m"])

    diff = load_csv(out_dir, "theory_vs_estimate.csv", 9, _zero_theory_mag_err)
    grid, rows = by_order(diff)
    est, theory = complex_column(rows, 2), complex_column(rows, 4)
    keep = np.abs(grid - math.sqrt(k_true / m)) > RESONANCE_EXCLUSION

    def errors(n):
        live = (rows[n][:, 8] > 0.5) & keep
        g_est, g_th = est[n][live], theory[n][live]
        mag = np.abs(np.abs(g_est) - np.abs(g_th)) / np.abs(g_th)
        phase = np.degrees(np.abs(np.angle(g_est * np.conj(g_th))))
        return mag, phase

    mag0, _ = errors(0)
    g1_out = 0
    for n in (-1, 1):
        mag, phase = errors(n)
        g1_out += int(np.sum((mag > TOL_MAG) | (phase > TOL_PHASE_DEG)))
    return {
        "fit_k_rel_err": abs(k_hat - k_true) / k_true,
        "fit_c_rel_err": abs(c_hat - c_true) / c_true,
        "g0_mag_err_max": float(np.max(mag0)),
        "g1_bins_out": g1_out,
        "theory_err": theory_error(cfg, grid, theory, "output"),
    }


def check_theory(out_dir: Path) -> dict:
    """Validate htf-theory artifacts; theory_err against the exact HTF."""
    cfg = load_json(out_dir, "resolved_config.json")
    grid, rows = by_order(load_csv(out_dir, "htf_theory.csv", 4))
    hss_values = complex_column(rows, 2)
    kept = int(cfg["theory"]["n_keep"])
    if sorted(hss_values) != list(range(-kept, kept + 1)):
        raise CheckFailed(f"htf_theory.csv holds orders {sorted(hss_values)}")
    for n in hss_values:
        load_csv(out_dir, f"plot_h{n}.csv", 5)
    err = theory_error(cfg, grid, hss_values, cfg["theory"]["convention"])
    if not err <= THEORY_ERR_LIMIT:
        raise CheckFailed(f"theory_err {err:.3e} exceeds {THEORY_ERR_LIMIT:.0e}")
    metrics = {name: NOT_APPLICABLE for name in NOT_APPLICABLE_ON_THEORY}
    metrics["theory_err"] = err
    return metrics


def check_ops(ops, check) -> dict:
    """Mark failed operations; accuracy metrics from the first good one.

    The first operation that exited 0 is checked in full; every other
    operation must reproduce its artifacts byte for byte.
    """
    reference = None
    accuracy = None
    for op in ops:
        op["failure"] = None
        try:
            if op["exit"] != 0:
                raise CheckFailed(f"exit code {op['exit']}")
            files = artifacts(op["dir"] / "out")
            if reference is None:
                accuracy = check(op["dir"] / "out")
                reference = files
            elif files != reference:
                changed = sorted(
                    k for k in set(files) | set(reference) if files.get(k) != reference.get(k)
                )
                raise CheckFailed(f"artifacts differ from the first operation: {changed}")
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            op["failure"] = f"{type(exc).__name__}: {exc}"
    return accuracy


def layer_metrics(trace: dict, wall: float, bytes_written: int) -> dict:
    from spans import self_times, under

    spans = trace["spans"]
    counts = trace["counts"]
    own = self_times(spans)

    def total(name, self_only=False):
        return sum(
            own[i] if self_only else s["end"] - s["start"]
            for i, s in enumerate(spans)
            if s["name"] == name
        )

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    integrate_s = total("sim.integrate", True)
    eval_s = total("hss.eval", True)
    iterations = counts.get("fit.iterations", 0)
    objective_evals = sum(
        1
        for i, s in enumerate(spans)
        if s["name"] == "hss.eval" and under(spans, i, "fit.fit_parameters")
    )
    root = spans[0]
    return {
        "sim.settle_s": total("sim.settle"),
        "sim.integrate_s": integrate_s,
        "sim.integrate_calls": calls("sim.integrate"),
        "sim.steps": counts.get("sim.steps", 0),
        "sim.steps_per_s": ratio(counts.get("sim.steps", 0), integrate_s),
        "sim.error_trajectory_s": total("sim.error_trajectory"),
        "excite.run_experiments_s": total("excite.run_experiments"),
        "excite.self_s": total("excite.run_experiments", True),
        "excite.records": counts.get("excite.records", 0),
        "hss.eval_s": eval_s,
        "hss.eval_calls": calls("hss.eval"),
        "hss.eval_points": counts.get("hss.eval_points", 0),
        "hss.points_per_s": ratio(counts.get("hss.eval_points", 0), eval_s),
        "hss.build_s": total("hss.fourier_series") + total("hss.build_hss"),
        "hss.n_states": counts.get("hss.n_states", 0),
        "hss.solve_flops": counts.get("hss.solve_flops", 0),
        "fit.fit_parameters_s": total("fit.fit_parameters"),
        "fit.self_s": total("fit.fit_parameters", True),
        "fit.objective_evals": objective_evals,
        "fit.iterations": iterations,
        "fit.evals_per_iteration": ratio(objective_evals, iterations),
        "estimate.spectra_s": total("estimate.spectra"),
        "estimate.estimate_htf_s": total("estimate.estimate_htf"),
        "estimate.regressor_calls": calls("estimate.build_regressor"),
        "estimate.bins": counts.get("estimate.bins", 0),
        "estimate.unknowns": counts.get("estimate.unknowns", 0),
        "model.linearize_s": total("model.linearize"),
        "cli.self_s": own[0] if root["name"] == "cli" else 0.0,
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": bytes_written,
        "trace.layer_share": ratio(sum(own), wall),
    }


def layer_shares(trace: dict, wall: float) -> dict:
    """Self time per layer (name prefix) as a share of the traced wall time."""
    from spans import self_times

    shares = {}
    for span, own in zip(trace["spans"], self_times(trace["spans"])):
        layer = span["name"].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own / wall
    return shares


def environment(args) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
            )
            commit = git.stdout.strip() or "unavailable"
        except OSError:
            commit = "unavailable (git not found)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def closed_loop(seconds: float, step, at_least: int = 1) -> None:
    """Call ``step`` back to back until ``seconds`` have passed and it ran ``at_least`` times."""
    start = time.perf_counter()
    for calls in itertools.count(1):
        step()
        if calls >= at_least and time.perf_counter() - start >= seconds:
            return


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "htfid" / "cli.py").is_file():
        print(f"error: {SRC / 'htfid'} not found; run from an htfid checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    cli_args = WORKLOADS[args.workload]
    adjust = args.workload in DRIFT_ADJUSTED
    rng = random.Random(args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    check = check_theory if cli_args[0] == "htf-theory" else check_identify

    ops = []
    setup = []
    refs = []
    try:
        # Fill the page cache before anything is timed.
        measure_setup(run_dir)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        first_traced = rng.random() < 0.5

        def step():
            traced_first = first_traced ^ (len(ops) // 2 % 2 == 1)
            for traced in (traced_first, not traced_first):
                ops.append(run_op(run_dir, len(ops), cli_args, traced))

        closed_loop(args.seconds, step)
    else:
        setup_first = rng.random() < 0.5
        if setup_first:
            setup = [measure_setup(run_dir) for _ in range(SETUP_PROBES)]

        def step():
            if adjust:
                refs.append(reference_task())
            ops.append(run_op(run_dir, len(ops), cli_args, False))

        closed_loop(args.seconds, step, MIN_OPS)
        if adjust:
            refs.append(reference_task())
        if not setup_first:
            setup = [measure_setup(run_dir) for _ in range(SETUP_PROBES)]

    accuracy = check_ops(ops, check)
    good = [op for op in ops if op["failure"] is None]
    failed = len(ops) - len(good)
    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    for op in ops:
        if op["failure"] is not None:
            print(f"op{op['index']:03d} failed: {op['failure']}")
    if not good:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    shares = []
    if args.trace:
        plain = [op for op in good if not op["traced"]]
        traced = [op for op in good if op["traced"]]
        if not plain or not traced:
            print("error: no successful traced/untraced pair", file=sys.stderr)
            return 1
        per_op = []
        for op in traced:
            trace = json.loads((op["dir"] / "trace.json").read_text(encoding="utf-8"))
            written = sum(p.stat().st_size for p in (op["dir"] / "out").iterdir())
            per_op.append(layer_metrics(trace, op["run_s"], written))
            shares.append(layer_shares(trace, op["run_s"]))
        values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        values["trace.run_s"] = statistics.median(op["run_s"] for op in traced)
        values["trace.untraced_run_s"] = statistics.median(op["run_s"] for op in plain)
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_adj_s": adjusted(good, refs, "run_s"),
            "cpu_adj_s": adjusted(good, refs, "cpu_s"),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good),
            "success_rate": len(good) / len(ops),
        }
        values.update(accuracy)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, metric in metrics.items():
        note = ""
        if not args.trace and args.workload == "theory-dense" and name in NOT_APPLICABLE_ON_THEORY:
            note = "  (not produced by this workload; constant)"
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    if not args.trace:
        reference = f", reference {statistics.median(r['run_s'] for r in refs):.3f} s" if refs else ""
        print(
            f"unadjusted medians: run {statistics.median(op['run_s'] for op in good):.3f} s, "
            f"cpu {statistics.median(op['cpu_s'] for op in good):.3f} s{reference}"
        )
    print(f"operations: {len(ops)} attempted, {failed} failed; setup probes: {len(setup)}")
    for i, share in enumerate(shares):
        print(f"traced op {i}: self time share of wall " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(share.items(), key=lambda kv: -kv[1])
        ))

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "metrics": metrics,
        "setup_samples_s": setup,
        "reference_samples": refs,
        "operations": [
            {k: op[k] for k in ("index", "traced", "exit", "run_s", "cpu_s", "peak_rss_mb", "failure")}
            for op in ops
        ],
        "layer_share_of_wall": shares,
    }
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if failed == 0:
        shutil.rmtree(run_dir)

    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
