"""End-to-end command-line behavior: configs, artifacts, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htfid import EstimationProblem, SpectrumRecord, cli, cost, fit_parameters, read_htf_csv
from htfid.hss import same_grid

from helpers import refuses


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_simulate_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["T"] == 1.0
    assert summary["t_hat"] == pytest.approx(0.498059, abs=5e-6)
    assert summary["duty"] == pytest.approx(0.512503, abs=5e-6)
    assert summary["residual_x"] < 1e-6 and summary["residual_xdot"] < 1e-6
    assert summary["n_crossings"] == 2
    orbit = (out / "orbit.csv").read_text().splitlines()
    assert orbit[0] == "t,x,xdot"
    assert len(orbit) == 1001  # header + one forcing period at 1 kHz
    assert read_json(out / "resolved_config.json") == cli.DEFAULT_CONFIG
    assert "wrote" in capsys.readouterr().out


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--out", str(a)]) == 0
    assert cli.main(["simulate", "--out", str(b)]) == 0
    for name in ("orbit.csv", "summary.json", "resolved_config.json"):
        assert sha256(a / name) == sha256(b / name)


def test_config_merge_and_flag_overrides(tmp_path):
    # c=2.5 still settles comfortably within the default 30 cycles; lighter
    # damping (e.g. 1.5) genuinely does not reach the 1e-6 residual there.
    cfg = write_config(tmp_path / "cfg.json", {"model": {"c": 2.5}})
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--alpha", "2e-8"]) == 0
    resolved = read_json(out / "resolved_config.json")
    assert resolved["model"]["c"] == 2.5
    assert resolved["model"]["k"] == 200.0  # untouched defaults survive
    assert resolved["estimate"]["alpha"] == 2e-8


def test_config_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    configs = [
        {"model": {"stiffness": 1.0}},
        {"sim": {"n_cycles": 0}},
        {"sim": {"x_init": [1.0]}},
        {"model": {"k": "abc"}},
        {"sim": {"dt": "x"}},
        {"estimate": {"band": 5}},
        {"estimate": {"band": [0, "a"]}},
        {"fit": {"max_iter": None}},
        {"model": {"c": True}},
        {"model": {"k": -1}},
        {"sim": {"n_cycles": 1}},
        {"chirp": {"f_hi": -1.0}},
        {"chirp": {"warmup_periods": -1}},
        {"fit": {"n_h": 0}},
        {"sim": {"n_cycles": 30.7}},
        {"theory": {"grid_points": 20.9}},
        {"chirp": {"n_segments": 9.5}},
        {"model": {"k": 10**400}},
    ]
    paths = [str(tmp_path / "nope.json"), str(bad_json)] + [
        write_config(tmp_path / f"c{i}.json", payload) for i, payload in enumerate(configs)
    ]
    runs = [["--config", path] for path in paths]
    runs += [["--alpha", "-1"], ["--nh", "-1"], ["--dt", "0"]]
    # the --nh clamp of theory.n_keep meets the value only once it is typed
    for n_keep in ("abc", None):
        path = write_config(tmp_path / f"keep{n_keep}.json", {"theory": {"n_keep": n_keep}})
        runs.append(["--nh", "3", "--config", path])
    out = tmp_path / "o"
    for extra in runs:
        assert cli.main(["simulate", *extra, "--out", str(out)]) == 2, extra
        assert "config error:" in capsys.readouterr().err, extra
        assert not out.exists(), extra


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("simulate", ["--dt", "0.003"], None),  # does not divide the 1 s period
        ("simulate", [], {"model": {"forcing_freq": 0.7}}),  # nor 1/0.7 s
        ("identify", ["--nh", "10"], None),  # 9 records, 21 orders
        ("identify", [], {"chirp": {"segment_duration": 30.5}}),  # not whole periods
    ],
    ids=["dt", "forcing-freq", "nh", "segment-duration"],
)
def test_settings_the_library_refuses_exit_2(tmp_path, capsys, command, flags, config):
    if config is not None:
        flags = flags + ["--config", write_config(tmp_path / "c.json", config)]
    assert cli.main([command, *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def refused_before_settling(tmp_path, capsys, monkeypatch, command, flags, config):
    def settle(*args, **kwargs):
        raise AssertionError("settle_limit_cycle called")

    monkeypatch.setattr(cli, "settle_limit_cycle", settle)
    if config is not None:
        flags = flags + ["--config", write_config(tmp_path / "c.json", config)]
    out = tmp_path / "o"
    assert cli.main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--nh", "10"], None),  # 9 records, 21 orders
        (["--nh", "0"], None),  # the fit reads G_-1 .. G_1
        ([], {"chirp": {"n_segments": 5}}),  # 5 records, 7 orders
        ([], {"chirp": {"n_segments": 6}}),  # one record short
        ([], {"chirp": {"segment_duration": 30.5}}),  # not whole periods
    ],
    ids=["nh", "nh-0", "n-segments", "n-segments-6", "segment-duration"],
)
def test_identify_refuses_unidentifiable_plan_before_settling(
    tmp_path, capsys, monkeypatch, flags, config
):
    refused_before_settling(tmp_path, capsys, monkeypatch, "identify", flags, config)


IDENTIFY = argparse.Namespace(command="identify", alpha=None, nh=None, dt=None)


@pytest.mark.parametrize(
    "n_segments, periods, refused",
    [(7, 30.0, False), (6, 30.0, True), (7, 30.0 + 5e-7, False), (7, 30.0 + 2e-6, True)],
)
def test_identify_checks_the_estimators_design_rule(n_segments, periods, refused):
    # the pre-flight and `EstimationProblem` accept or refuse a design alike
    cfg = cli.load_config()
    cfg["chirp"].update(n_segments=n_segments, segment_duration=periods)
    n = 3000  # samples per record of `periods` one-second forcing periods
    blank = np.zeros(n, dtype=complex)
    freq = 2.0 * math.pi * np.fft.fftfreq(n, d=periods / n)
    records = [SpectrumRecord(freq, blank, blank, 0.0)] * n_segments
    sites = [
        lambda: cli._check_config(cfg, IDENTIFY),
        lambda: EstimationProblem(records=records, n_harmonics=3, pump=2.0 * math.pi),
    ]
    assert [refuses(site) for site in sites] == [refused, refused]


@pytest.mark.parametrize("command", ["simulate", "htf-theory", "identify"])
@pytest.mark.parametrize(
    "flags, config",
    [
        (["--dt", "0.003"], None),  # does not divide the 1 s period
        ([], {"model": {"forcing_freq": 0.7}}),  # nor 1/0.7 s
    ],
    ids=["dt", "forcing-freq"],
)
def test_dt_off_the_period_refused_before_settling(
    tmp_path, capsys, monkeypatch, command, flags, config
):
    refused_before_settling(tmp_path, capsys, monkeypatch, command, flags, config)


def test_htf_theory_takes_nh_0(tmp_path):
    # only identify's fit needs G_-1 .. G_1
    assert cli.main(["htf-theory", "--nh", "0", "--out", str(tmp_path / "o")]) == 0


def test_resolved_config_holds_typed_values(tmp_path):
    # float keys spelled as ints and int keys as integral floats resolve
    # to the default run's values, so resolved_config.json is the same
    cfg = write_config(tmp_path / "c.json", {"model": {"k": 200}, "sim": {"n_cycles": 30.0}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert sha256(a / "resolved_config.json") == sha256(b / "resolved_config.json")


def test_identify_chirp_above_nyquist_exits_3(tmp_path, capsys):
    # At dt = 0.02 the Nyquist rate is 25 Hz; a 30 Hz sweep would alias.
    cfg = write_config(tmp_path / "c.json", {"chirp": {"f_hi": 30.0}, "sim": {"dt": 0.02}})
    assert cli.main(["identify", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Nyquist" in err and not (tmp_path / "o" / "htf_estimate.csv").exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_htf_theory_artifacts(tmp_path):
    out = tmp_path / "theory"
    assert cli.main(["htf-theory", "--out", str(out)]) == 0
    hts = read_htf_csv(out / "htf_theory.csv")
    assert hts.convention == "input"
    assert hts.omega_grid.size == 600
    assert sorted(hts.harmonics) == list(range(-3, 4))
    for n in range(-3, 4):
        lines = (out / f"plot_h{n}.csv").read_text().splitlines()
        assert lines[0] == "omega_rad_s,f_hz,magnitude,magnitude_db,phase_deg"
        assert len(lines) == 601
    # spot-check the plot columns against the raw CSV
    w, f, mag, mag_db, phase = map(float, lines[1].split(","))
    assert f == pytest.approx(w / (2.0 * math.pi), rel=1e-12)
    assert mag == pytest.approx(abs(hts.harmonics[3][0]), rel=1e-12)
    assert mag_db == pytest.approx(20.0 * math.log10(mag), rel=1e-9)
    assert -180.0 <= phase <= 180.0


def test_htf_theory_undamped_yields_pure_frf(tmp_path):
    # the undamped model never settles from rest, so the config supplies
    # the known periodic orbit's initial condition
    x_eq = 0.2 - 9.81 / 200.0
    cfg = write_config(
        tmp_path / "c0.json",
        {
            "model": {"c": 0.0},
            "sim": {"x_init": [x_eq + 1.0 / (200.0 - 4.0 * math.pi**2), 0.0]},
            "theory": {"n_h": 4, "n_keep": 2},
        },
    )
    out = tmp_path / "c0"
    assert cli.main(["htf-theory", "--config", cfg, "--out", str(out)]) == 0
    hts = read_htf_csv(out / "htf_theory.csv")
    assert hts.convention == "input"
    for n in (-2, -1, 1, 2):
        assert np.max(np.abs(hts.harmonics[n])) < 1e-12
    frf = 1.0 / (200.0 - hts.omega_grid**2)
    off_res = np.abs(200.0 - hts.omega_grid**2) > 1.0
    rel = np.abs(hts.harmonics[0][off_res] - frf[off_res]) / np.abs(frf[off_res])
    assert np.max(rel) < 1e-9


def test_truncation_comparison_within_one_percent(tmp_path):
    # n_h=3 vs n_h=10 on the harmonics the study keeps (|n| <= 1)
    cfg = write_config(tmp_path / "k1.json", {"theory": {"n_keep": 1}})
    low, high = tmp_path / "nh3", tmp_path / "nh10"
    assert cli.main(["htf-theory", "--config", cfg, "--out", str(low), "--nh", "3"]) == 0
    assert cli.main(["htf-theory", "--config", cfg, "--out", str(high)]) == 0
    cmp_dir = tmp_path / "cmp"
    rc = cli.main(
        [
            "compare",
            str(high / "htf_theory.csv"),
            str(low / "htf_theory.csv"),
            "--tol-mag",
            "0.01",
            "--out",
            str(cmp_dir),
        ]
    )
    assert rc == 0
    report = read_json(cmp_dir / "compare.json")
    assert report["within_tolerance"] is True
    for n in ("-1", "0", "1"):
        assert report["harmonics"][n]["mag_rel_max"] < 0.01
        assert report["harmonics"][n]["violations"] == 0


def test_compare_rejects_mismatched_grids(tmp_path, capsys):
    coarse = write_config(tmp_path / "g.json", {"theory": {"grid_points": 500}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["htf-theory", "--out", str(a)]) == 0
    assert cli.main(["htf-theory", "--config", coarse, "--out", str(b)]) == 0
    rc = cli.main(["compare", str(a / "htf_theory.csv"), str(b / "htf_theory.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_compare_rejects_mismatched_conventions(tmp_path, capsys):
    output = write_config(tmp_path / "o.json", {"theory": {"convention": "output"}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["htf-theory", "--out", str(a)]) == 0
    assert cli.main(["htf-theory", "--config", output, "--out", str(b)]) == 0
    assert read_htf_csv(b / "htf_theory.csv").convention == "output"
    rc = cli.main(["compare", str(a / "htf_theory.csv"), str(b / "htf_theory.csv")])
    assert rc == 3
    assert "convention" in capsys.readouterr().err


HEAD = "omega_rad_s,n,re,im\n# convention=input\n"


@pytest.mark.parametrize("offset, refused", [(5e-10, False), (2e-9, True)])
def test_every_grid_check_takes_one_tolerance(tmp_path, lab_problem, lab_estimate, offset, refused):
    # two grids `offset` rad/s apart, met by each check of grid agreement
    ref, moved, mixed = (tmp_path / f"{name}.csv" for name in ("ref", "moved", "mixed"))
    ref.write_text(HEAD + "1,0,1,0\n2,0,1,0\n")
    moved.write_text(HEAD + f"{1.0 + offset!r},0,1,0\n2,0,1,0\n")
    mixed.write_text(HEAD + f"1,0,1,0\n2,0,1,0\n{1.0 + offset!r},1,1,0\n2,1,1,0\n")
    shifted = dataclasses.replace(lab_estimate, omega_grid=lab_estimate.omega_grid + offset)
    verdicts = [
        not same_grid(np.array([1.0, 2.0]), np.array([1.0 + offset, 2.0])),
        refuses(lambda: read_htf_csv(mixed)),
        cli.main(["compare", str(ref), str(moved)]) == 3,
        refuses(lambda: cost(lab_problem, shifted)),
    ]
    assert verdicts == [refused] * 4


@pytest.mark.parametrize(
    "content, code",
    [
        (None, 2),  # no such file
        ("README", 3),
        (b"\xff\xfe\x00binary", 3),
        ("omega_rad_s,n,re,im\n1,0,1,0\n2,0,1,0\n", 3),  # no convention line
        (HEAD + "1,0,1,0\n2,0,1,0,7\n", 3),
        (HEAD + "1,0,1,0\n2,0,1,0\n1,0.5,1,0\n2,0.5,1,0\n", 3),
        (HEAD + "1,0,nan,nan\n2,0,nan,nan\n", 3),
        (HEAD + "1,0,inf,0\n2,0,1,0\n", 3),
        (HEAD, 3),  # header only
    ],
    ids=[
        "missing",
        "readme",
        "binary",
        "no-convention",
        "ragged",
        "half-order",
        "nan",
        "inf",
        "header-only",
    ],
)
@pytest.mark.filterwarnings("error")  # a stray warning fails the test, not just pytest's log
def test_compare_bad_file_is_an_error_not_a_traceback(tmp_path, capsys, content, code):
    ref = tmp_path / "ref.csv"
    ref.write_text(HEAD + "1,0,1,0\n2,0,1,0\n")
    assert cli.main(["compare", str(ref), str(ref)]) == 0
    bad = tmp_path / "bad.csv"
    if content == "README":
        bad = Path(__file__).resolve().parents[1] / "README.md"
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    assert cli.main(["compare", str(ref), str(bad)]) == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("flag", ["--tol-mag", "--tol-phase"])
def test_compare_refuses_tolerance_not_finite_and_non_negative(tmp_path, capsys, flag, tol):
    ref, doubled = tmp_path / "ref.csv", tmp_path / "doubled.csv"
    ref.write_text(HEAD + "1,0,1,0\n2,0,1,0\n")
    doubled.write_text(HEAD + "1,0,2,0\n2,0,2,0\n")
    assert cli.main(["compare", str(ref), str(doubled)]) == 0
    assert "within tolerance: no" in capsys.readouterr().out
    out = tmp_path / "o"
    assert cli.main(["compare", str(ref), str(doubled), flag, tol, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag}") and captured.out == ""
    assert not out.exists()


def test_bench_trace_targets_resolve():
    # `bench/run.py --trace 1` rebinds these names in the htfid modules;
    # a renamed or deleted one would break the traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "bench"), env.get("PYTHONPATH")])
    )
    code = (
        "import htfid.fit, spans, trace_launcher\n"
        "for module, attr, _, _ in trace_launcher.TRACED:\n"
        "    assert callable(getattr(module, attr, None)), (module.__name__, attr)\n"
        "assert callable(htfid.fit.FitResult.to_json)\n"
        "trace_launcher.install(spans.Tracer())\n"
        "print(len(trace_launcher.TRACED))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.fixture(scope="module")
def identify_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("identify") / "run"
    assert cli.main(["identify", "--out", str(out)]) == 0
    return out


def test_identify_artifacts(identify_dir, lab_estimate):
    for name in (
        "htf_estimate.csv",
        "theory_vs_estimate.csv",
        "diagnostics.json",
        "fit.json",
        "resolved_config.json",
    ):
        assert (identify_dir / name).exists()
    est = read_htf_csv(identify_dir / "htf_estimate.csv")
    assert est.convention == "output"
    assert est.omega_grid.size == 210
    diag = read_json(identify_dir / "diagnostics.json")
    assert diag["n_bins"] == 210 and diag["n_records"] == 9
    table = (identify_dir / "theory_vs_estimate.csv").read_text().splitlines()
    assert table[0] == (
        "omega_rad_s,n,est_re,est_im,theory_re,theory_im,"
        "mag_rel_err,phase_err_deg,excited"
    )
    assert len(table) == 1 + 7 * 210

    # the estimate columns are htf_estimate.csv's rows, digit for digit
    est_rows = (identify_dir / "htf_estimate.csv").read_text().splitlines()[2:]
    assert [",".join(row.split(",")[:4]) for row in table[1:]] == est_rows

    # the error columns are the shared comparison of the parsed values
    data = np.loadtxt(identify_dir / "theory_vs_estimate.csv", delimiter=",", skiprows=1)
    rows = {n: data[data[:, 1] == n] for n in est.harmonics}
    theory = {n: r[:, 4] + 1j * r[:, 5] for n, r in rows.items()}
    used = {n: r[:, 8] > 0.5 for n, r in rows.items()}
    errors, _ = cli.htf_diff(theory, est.harmonics, used, cli.TOL_MAG_REL, cli.TOL_PHASE_DEG)
    for n, r in rows.items():
        assert np.array_equal(r[:, 6], errors[n][0], equal_nan=True)
        assert np.array_equal(r[:, 7], errors[n][1])

    # the session fixture is the estimate identify makes at the default config
    for n, values in lab_estimate.harmonics.items():
        assert np.array_equal(est.harmonics[n], values)
        assert np.array_equal(rows[n][:, 8], lab_estimate.excitation_mask[n])


def test_fit_on_read_back_estimate_matches_fit_json(identify_dir, lab_lin, lab_cycle):
    fit = read_json(identify_dir / "fit.json")
    cfg = cli.DEFAULT_CONFIG["fit"]
    result = fit_parameters(
        read_htf_csv(identify_dir / "htf_estimate.csv"),
        (cfg["init_k"], cfg["init_c"]),
        lab_lin.duty,
        lab_lin.t_hat,
        lab_cycle.T,
        max_iter=cfg["max_iter"],
        n_h=cfg["n_h"],
    )
    assert (result.k_hat, result.c_hat) == (fit["k_hat"], fit["c_hat"])


def test_identify_recovers_parameters(identify_dir):
    fit = read_json(identify_dir / "fit.json")
    assert fit["converged"] is True
    assert 198.0 <= fit["k_hat"] <= 202.0
    assert 1.9 <= fit["c_hat"] <= 2.3


def test_identify_alpha_halving_is_continuous(identify_dir, tmp_path):
    other = tmp_path / "halved"
    assert cli.main(["identify", "--out", str(other), "--alpha", "5e-9"]) == 0
    base = read_htf_csv(identify_dir / "htf_estimate.csv")
    half = read_htf_csv(other / "htf_estimate.csv")
    assert base.convention == half.convention == "output"
    num = sum(
        float(np.sum(np.abs(half.harmonics[n] - base.harmonics[n]) ** 2))
        for n in base.harmonics
    )
    den = sum(float(np.sum(np.abs(base.harmonics[n]) ** 2)) for n in base.harmonics)
    rel = math.sqrt(num / den)
    assert 0.0 < rel < 0.10


def test_identify_zero_amplitude_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "null.json",
        {
            "chirp": {"amplitude": 0.0, "n_segments": 3, "warmup_periods": 0},
            "estimate": {"n_harmonics": 1},
        },
    )
    rc = cli.main(["identify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_identify_leaves_out_numpy_ma(tmp_path):
    # np.median and np.quantile import numpy.ma, some 19 ms of every run.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from htfid import cli\n"
        f"assert cli.main(['identify', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_console_script_installed(tmp_path):
    exe = shutil.which("htfid")
    assert exe, "console script should be on PATH after pip install -e ."
    out = tmp_path / "script"
    proc = subprocess.run(
        [exe, "simulate", "--out", str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert (out / "summary.json").exists()
