"""End-to-end command-line behavior: configs, artifacts, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from htfid import (
    EstimationProblem,
    SpectrumRecord,
    cli,
    commands,
    cost,
    default_grid,
    estimate_htf,
    eval_htf,
    fit_parameters,
    fourier_series,
    read_htf_csv,
    run_experiments,
    settle_limit_cycle,
)
from htfid.hss import same_grid

from helpers import fresh_process, fresh_python, refuses, sample_buffer


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_identify_traced_peak(tmp_path):
    # Each phase holds each sample once: one-sided spectra with one input
    # spectrum for all nine records, the records dropped once transformed,
    # the orbit subtracted in place, the integrator's tables built one
    # shared drive at a time into one stage-drive table per member, its
    # chunk buffers freed before the result and the chart flags taken
    # without a copy; and the records' batch stores positions only.
    # identify then peaks at 4.99 MiB of traced memory on 20 s records and
    # 5.51 MiB on the default 30 s ones, against 6.44 and 7.64 MiB with a
    # velocity row stored beside each record's positions (a fresh process
    # with the library imported; in this test the two runs read 4.89 and
    # 5.48 MiB, against 6.34 and 7.64).  The count is deterministic: it
    # sums the allocations, not the pages they touch.
    for duration, bound_mib in ((20.0, 5.3), (30.0, 5.9)):
        config = write_config(tmp_path / "cfg.json", {"chirp": {"segment_duration": duration}})
        tracemalloc.start()
        try:
            out = str(tmp_path / f"run{duration:g}")
            assert cli.main(["identify", "--config", config, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, (duration, peak / 2**20)


def test_identify_frees_the_records_before_the_estimate(tmp_path, monkeypatch):
    samples = []

    def experiments(*args, **kwargs):
        records = run_experiments(*args, **kwargs)
        samples.extend(weakref.ref(sample_buffer(a)) for a in (records[0].xi1, records[0].u))
        return records

    def estimate(problem):
        # reference counting frees the samples as the last record goes
        assert all(ref() is None for ref in samples)
        return estimate_htf(problem)

    monkeypatch.setattr("htfid.commands.run_experiments", experiments)
    monkeypatch.setattr("htfid.commands.estimate_htf", estimate)
    config = write_config(tmp_path / "cfg.json", {"chirp": {"segment_duration": 4.0}})
    assert cli.main(["identify", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert len(samples) == 2


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
    assert read_json(out / "resolved_config.json") == commands.DEFAULT_CONFIG
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
        {"estimate": {"min_excitation": -1.0}},
        {"estimate": {"band": [3.0, 1.0]}},
        [1, 2],  # a root that is not an object
        {"bogus": {}},  # an unknown section
        {"sim": 5},  # a section that is not an object
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


@pytest.mark.parametrize(
    "config",
    [
        {"theory": {"grid_points": 1e15}},  # 7.11 PiB
        {"theory": {"n_h": 10**15}},  # 28.4 PiB
        # past numpy's index range, which it refuses with a ValueError
        {"theory": {"grid_points": 2**62}},
        {"theory": {"n_h": 2**62}},
    ],
    ids=["grid-points", "n-h", "grid-points-past-index", "n-h-past-index"],
)
def test_count_too_large_to_allocate_exits_3(tmp_path, capsys, config):
    # the settings pass every rule; the step that allocates then fails
    flags = ["--config", write_config(tmp_path / "c.json", config)]
    assert cli.main(["htf-theory", *flags, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and err.count("\n") == 1


ALL_RUNS = ("simulate", "htf-theory", "identify")
#: Settings, each with the commands it once ended in a traceback, an
#: OverflowError or numpy's ValueError.
UNINDEXABLE = [
    ("model.forcing_freq", 1e-308, ALL_RUNS),  # a period of inf steps
    ("sim.n_cycles", 1e308, ALL_RUNS),
    ("chirp.segment_duration", 1e308, ["identify"]),
    ("sim.n_cycles", 2**63, ALL_RUNS),
    ("chirp.warmup_periods", 2**63, ["identify"]),
    ("model.forcing_freq", 1e-300, ALL_RUNS),  # 1e303 steps a period
    ("sim.dt", 1e-300, ALL_RUNS),
    ("theory.n_h", 1e308, ["htf-theory", "identify"]),
    ("theory.n_h", 2**63, ["htf-theory", "identify"]),
    ("fit.n_h", 1e308, ["identify"]),
    ("fit.n_h", 2**63, ["identify"]),
    ("chirp.segment_duration", 2**63, ["identify"]),
    ("chirp.n_segments", 1e308, ["identify"]),
    ("theory.grid_points", 1e308, ["htf-theory"]),
]


@pytest.mark.parametrize(
    "setting, value, commands", UNINDEXABLE, ids=[f"{s}={v!r}" for s, v, _ in UNINDEXABLE]
)
def test_count_no_array_can_index_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch, setting, value, commands
):
    # Each is refused with one line before the orbit is settled or any
    # file is written.
    forbid_settling(monkeypatch)
    section, key = setting.split(".")
    config = write_config(tmp_path / "c.json", {section: {key: value}})
    for command in commands:
        out = tmp_path / command
        start = time.perf_counter()
        assert cli.main([command, "--config", config, "--out", str(out)]) in (2, 3), command
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not out.exists()


def forbid_settling(monkeypatch):
    def settle(*args, **kwargs):
        raise AssertionError("settle_limit_cycle called")

    monkeypatch.setattr("htfid.commands.settle_limit_cycle", settle)


def refused_before_settling(tmp_path, capsys, monkeypatch, command, flags, config):
    forbid_settling(monkeypatch)
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
        ([], {"estimate": {"band": [0, 499]}}),  # 2*pi*(499 + 3) rad/s reaches pi/dt
        ([], {"chirp": {"segment_duration": 30.0000005}}),  # whole periods, not whole steps
    ],
    ids=[
        "nh", "nh-0", "n-segments", "n-segments-6", "segment-duration", "band-at-nyquist",
        "segment-steps",
    ],
)
def test_identify_refuses_unidentifiable_plan_before_settling(
    tmp_path, capsys, monkeypatch, flags, config
):
    refused_before_settling(tmp_path, capsys, monkeypatch, "identify", flags, config)


IDENTIFY = argparse.Namespace(command="identify", alpha=None, nh=None, dt=None)


def blank_records(n_records=9, periods=30.0):
    """Empty spectra of records of `periods` one-second forcing periods,
    starting at phases r/n_records of a period as `run_experiments`' do."""
    n = 3000  # samples per record
    blank = np.zeros(n // 2 + 1, dtype=complex)
    freq = 2.0 * math.pi * np.fft.rfftfreq(n, d=periods / n)
    return [SpectrumRecord(freq, blank, blank, r / n_records, n) for r in range(n_records)]


@pytest.mark.parametrize(
    "n_segments, periods, refused",
    [(7, 30.0, False), (6, 30.0, True), (7, 30.0 + 5e-7, False), (7, 30.0 + 2e-6, True)],
)
def test_identify_checks_the_estimators_design_rule(n_segments, periods, refused):
    # the pre-flight and `EstimationProblem` accept or refuse a design alike;
    # a step of 0.5 us divides every segment here, so the pre-flight's step
    # rule refuses none of them
    cfg = commands.load_config()
    cfg["sim"]["dt"] = 5e-7
    cfg["chirp"].update(n_segments=n_segments, segment_duration=periods)
    records = blank_records(n_segments, periods)
    sites = [
        lambda: commands._check_config(cfg, IDENTIFY),
        lambda: EstimationProblem(records=records, n_harmonics=3, pump=2.0 * math.pi),
    ]
    assert [refuses(site) for site in sites] == [refused, refused]


@pytest.mark.parametrize("band_hi, refused", [(46.9, False), (47.1, True)])
def test_identify_checks_the_estimators_nyquist_rule(band_hi, refused):
    # 3000 samples in 30 s put Nyquist at 50 Hz, which the band's top
    # shifted by three 1 Hz pump harmonics reaches at 47 Hz
    cfg = commands.load_config()
    cfg["sim"]["dt"] = 0.01
    cfg["estimate"]["band"] = [0.0, band_hi]
    sites = [
        lambda: commands._check_config(cfg, IDENTIFY),
        lambda: problem_with(band_hz=(0.0, band_hi)),
    ]
    assert [refuses(site) for site in sites] == [refused, refused]


def fit_with(lab, init=(150.0, 1.0), **kwargs):
    target = eval_htf(lab.hss, [5.0, 10.0], n_keep=1)
    return fit_parameters(target, init, lab.lin.duty, lab.lin.t_hat, lab.lin.T, **kwargs)


def problem_with(**kwargs):
    settings = {"records": blank_records(), "n_harmonics": 3, "pump": 2.0 * math.pi}
    return EstimationProblem(**{**settings, **kwargs})


# The library function that owns each `LOWER_BOUNDS` setting, given the value.
OWNERS = {
    "sim.n_cycles": lambda lab, v: settle_limit_cycle(lab.model, n_cycles=v),
    "sim.settle_tol": lambda lab, v: settle_limit_cycle(lab.model, tol=v),
    "estimate.n_harmonics": lambda lab, v: problem_with(n_harmonics=v),
    "estimate.alpha": lambda lab, v: problem_with(alpha=v),
    "estimate.min_excitation": lambda lab, v: problem_with(min_excitation=v),
    "theory.n_h": lambda lab, v: fourier_series(lab.lin, v),
    "theory.n_keep": lambda lab, v: eval_htf(lab.hss, [5.0], n_keep=v),
    "theory.f_hi": lambda lab, v: default_grid(v, 600),
    "theory.grid_points": lambda lab, v: default_grid(7.0, v),
    "fit.init_k": lambda lab, v: fit_with(lab, init=(v, 1.0)),
    "fit.init_c": lambda lab, v: fit_with(lab, init=(150.0, v)),
    "fit.max_iter": lambda lab, v: fit_with(lab, max_iter=v),
    "fit.n_h": lambda lab, v: fit_with(lab, n_h=v),
}


def test_every_lower_bound_has_an_owner():
    assert OWNERS.keys() == commands.LOWER_BOUNDS.keys()


@pytest.mark.parametrize("name", sorted(commands.LOWER_BOUNDS))
def test_preflight_and_library_refuse_a_value_past_the_bound(
    name, lab_model, lab_cycle, lab_lin, lab_hss10
):
    # the value just past the bound: one below an integer's, the bound
    # itself if strict, else the next float below
    bound, strict = commands.LOWER_BOUNDS[name]
    section, key = name.split(".")
    if type(commands.DEFAULT_CONFIG[section][key]) is int:
        value = bound - 1
    else:
        value = float(bound) if strict else math.nextafter(bound, -math.inf)
    cfg = commands.load_config()
    cfg[section][key] = value
    lab = SimpleNamespace(model=lab_model, cycle=lab_cycle, lin=lab_lin, hss=lab_hss10)
    sites = [
        lambda: commands._check_config(cfg, IDENTIFY),
        lambda: OWNERS[name](lab, value),
    ]
    assert [refuses(site) for site in sites] == [True, True]


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


@pytest.mark.filterwarnings("error")  # a numpy warning fails the test
def test_diverging_run_reports_one_error_line(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"sim": {"x_init": [1e308, 1e308]}})
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: non-finite state in member 0 at t=0.005\n"


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


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["simulate", "htf-theory", "identify", "compare"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, below):
    forbid_settling(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [command]
    if command == "compare":
        ref = tmp_path / "ref.csv"
        ref.write_text(HEAD + "1,0,1,0\n2,0,1,0\n")
        argv += [str(ref), str(ref)]
    out = taken / "run" if below else taken
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot create output directory {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert taken.read_text() == ""


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
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = (
        f"import sys; sys.path.insert(0, {str(bench)!r})\n"
        "import htfid.fit, spans, trace_launcher\n"
        "for module, attr, _, _ in trace_launcher.TRACED:\n"
        "    assert callable(getattr(module, attr, None)), (module.__name__, attr)\n"
        "assert callable(htfid.fit.FitResult.to_json)\n"
        "trace_launcher.install(spans.Tracer())\n"
        "print(len(trace_launcher.TRACED))\n"
    )
    assert int(fresh_python(code)) > 0


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
    errors, _ = commands.htf_diff(theory, est.harmonics, used, cli.TOL_MAG_REL, cli.TOL_PHASE_DEG)
    for n, r in rows.items():
        assert np.array_equal(r[:, 6], errors[n][0], equal_nan=True)
        assert np.array_equal(r[:, 7], errors[n][1])

    # the session fixture is the estimate identify makes at the default config
    for n, values in lab_estimate.harmonics.items():
        assert np.array_equal(est.harmonics[n], values)
        assert np.array_equal(rows[n][:, 8], lab_estimate.excitation_mask[n])


def test_fit_on_read_back_estimate_matches_fit_json(identify_dir, lab_lin, lab_cycle):
    fit = read_json(identify_dir / "fit.json")
    cfg = commands.DEFAULT_CONFIG["fit"]
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
    # np.median and np.quantile import numpy.ma, some 8 ms of every run.
    code = (
        "import sys\n"
        "from htfid import cli\n"
        f"assert cli.main(['identify', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert fresh_python(code).splitlines()[-1] == "False"


def test_cli_import_loads_only_the_standard_library():
    code = (
        "import sys\n"
        "import htfid.cli\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'htfid'))\n"
    )
    assert fresh_python(code) == "False ['htfid', 'htfid.cli', 'htfid.errors']"


def test_python_m_runs_the_cli_module_once(tmp_path):
    # `python -m htfid.cli` runs cli.py as __main__; an import of
    # htfid.cli from htfid.commands would run it a second time
    argv = ["-X", "importtime", "-m", "htfid.cli", "htf-theory", "--nh", "0", "--out", str(tmp_path)]
    lines = fresh_process(argv).stderr.splitlines()
    imported = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    assert "htfid.commands" in imported and "htfid.cli" not in imported


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)], ids=["help", "usage-error"])
def test_usage_loads_no_numpy(argv, code):
    source = (
        "import sys\n"
        "from htfid import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except SystemExit as done:\n"
        "    print(done.code, 'numpy' in sys.modules, 'htfid.commands' in sys.modules)\n"
    )
    assert fresh_python(source).splitlines()[-1] == f"{code} False False"


ENVIRON_AFTER_CLI_IMPORT = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import htfid.cli\n"
    "print(dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def test_cli_runs_blas_on_one_thread_by_default():
    assert fresh_python(ENVIRON_AFTER_CLI_IMPORT) == "False 1"


@pytest.mark.parametrize(
    "variable, expected",
    [
        ("OPENBLAS_NUM_THREADS", "True 2"),
        ("GOTO_NUM_THREADS", "True None"),
        ("OMP_NUM_THREADS", "True None"),
    ],
)
def test_cli_keeps_a_chosen_blas_thread_count(variable, expected):
    assert fresh_python(ENVIRON_AFTER_CLI_IMPORT, env={variable: "2"}) == expected


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    assert fresh_python("import numpy\n" + ENVIRON_AFTER_CLI_IMPORT) == "True None"


def test_theory_run_spends_no_cpu_on_other_threads(tmp_path):
    # `python -m htfid.cli htf-theory --nh 40`: the CPU time of the whole
    # process minus that of the main thread is what BLAS worker threads
    # took (0.08-0.62 s with OpenBLAS's default pool on two CPUs).
    code = (
        "import resource, runpy, sys, time\n"
        f"sys.argv = ['htfid', 'htf-theory', '--nh', '40', '--out', {str(tmp_path)!r}]\n"
        "try:\n"
        "    runpy.run_module('htfid.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    assert done.code == 0\n"
        "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(usage.ru_utime + usage.ru_stime - time.thread_time())\n"
    )
    assert float(fresh_python(code).splitlines()[-1]) < 0.02
    assert (tmp_path / "htf_theory.csv").is_file()


def test_theory_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The default run (one thread) and one on two threads agree to rounding.
    runs = []
    for name, env in (("default", None), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        code = (
            "from htfid import cli\n"
            f"assert cli.main(['htf-theory', '--nh', '40', '--out', {str(out)!r}]) == 0\n"
        )
        fresh_python(code, env=env)
        runs.append(read_htf_csv(out / "htf_theory.csv"))
    one, two = runs
    assert np.array_equal(one.omega_grid, two.omega_grid)
    assert one.harmonics.keys() == two.harmonics.keys()
    for n, g in one.harmonics.items():
        assert np.max(np.abs(g - two.harmonics[n])) <= 1e-12 * np.max(np.abs(g)), n


def test_console_script_installed(tmp_path):
    exe = shutil.which("htfid")
    assert exe, "console script should be on PATH after pip install -e ."
    out = tmp_path / "script"
    proc = subprocess.run(
        [exe, "simulate", "--out", str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert (out / "summary.json").exists()
