"""The two scalar input rules, `check_integer` and `check_real`, at their sites."""

import math

import numpy as np
import pytest

from htfid import (
    ChirpPlan,
    InvalidInputError,
    ModelParams,
    SwitchedLinearization,
    build_hss,
    eval_htf,
    fit_parameters,
    fourier_series,
    square_wave_coeffs,
)
from htfid.errors import check_real


@pytest.fixture(scope="module")
def small():
    """A switched linearization, its n_h=3 HSS and a two-point fit target."""
    lin = SwitchedLinearization.oscillator(1.0, 200.0, 2.0, 0.4, 0.1, 1.0)
    hss = build_hss(fourier_series(lin, 3))
    return lin, hss, eval_htf(hss, [5.0, 10.0], n_keep=1)


def fit(small, init=(150.0, 1.0), **kwargs):
    lin, _, target = small
    return fit_parameters(target, init, lin.duty, lin.t_hat, lin.T, **kwargs)


CASES = {
    # each refused here was accepted before, or escaped as a bare TypeError
    "bool-n_segments": (lambda s: ChirpPlan(n_segments=True), True),
    "bool-n_h": (lambda s: square_wave_coeffs(0.4, 0.1, 1.0, n_h=True), True),
    "bool-n_keep": (lambda s: eval_htf(s[1], [5.0], n_keep=True), True),
    "bool-c": (lambda s: ModelParams(c=True), True),
    "numpy-bool-c": (lambda s: ModelParams(c=np.True_), True),
    "numpy-bool-alpha": (lambda s: check_real("alpha", np.False_, 0.0), True),
    "nan-T": (lambda s: square_wave_coeffs(0.4, 0.1, math.nan, 3), True),
    "inf-f_hi": (lambda s: ChirpPlan(f_hi=math.inf), True),
    "float-max_iter": (lambda s: fit(s, max_iter=2.5), True),
    "string-init": (lambda s: fit(s, init=("150", "1")), True),
    "string-max_iter": (lambda s: fit(s, max_iter="3"), True),
    "string-from_dict": (lambda s: ModelParams.from_dict({"k": "200"}), True),
    # numpy scalars pass as before
    "int64-n_segments": (lambda s: ChirpPlan(n_segments=np.int64(9)), False),
    "int64-n_h": (lambda s: square_wave_coeffs(0.4, 0.1, 1.0, n_h=np.int64(3)), False),
    "int64-n_keep": (lambda s: eval_htf(s[1], [5.0], n_keep=np.int64(1)), False),
    "int64-max_iter": (lambda s: fit(s, max_iter=np.int64(2)), False),
    "float32-c": (lambda s: ModelParams(c=np.float32(2.0)), False),
    "float32-T": (lambda s: square_wave_coeffs(0.4, 0.1, np.float32(1.0), 3), False),
    "float32-init": (lambda s: fit(s, init=(np.float32(150.0), np.float32(1.0))), False),
}


@pytest.mark.parametrize("call, refused", list(CASES.values()), ids=list(CASES))
def test_counts_are_integers_and_settings_finite_numbers(small, call, refused):
    if refused:
        with pytest.raises(InvalidInputError, match=" must be "):
            call(small)
    else:
        call(small)
