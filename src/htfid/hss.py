"""Harmonic balance of the switched linearization.

A linear time-periodic system with matrix Fourier series A(t) =
sum_n A_n exp(j*n*w_p*t) maps exponentially modulated periodic signals
to signals of the same class.  Collecting the harmonic coefficients of
state, input and output into stacked vectors turns the dynamics into an
algebraic system

    s X = (A_blk - N_blk) X + B_blk U,     Y = C_blk X + D_blk U,

where A_blk is block Toeplitz in the Fourier coefficients (block (r, c)
holds A_{r-c}), N_blk = blockdiag(j*n*w_p*I) accounts for the modulation
of each harmonic line, and B_blk, C_blk, D_blk are built the same way
from their own series.  Solving at s = j*w and reading off the central
block column of the resulting input/output map gives the harmonic
transfer functions G_n(j*w): the gain from an input line at w to the
output line at w + n*w_p.

Everything here is truncated to `n_h` harmonics per side.  Truncation
converges quickly for the damper square wave because its coefficients
decay like 1/n.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DegenerateSwitchingWarning, InvalidInputError, SingularFrequencyError
from .model import SwitchedLinearization

#: Condition number beyond which a grid point gets a warning attached.
COND_WARN = 1e12
#: Relative perturbation applied to a grid frequency that is singular.
SINGULAR_NUDGE = 1e-9


def square_wave_coeffs(duty: float, t_hat: float, T: float, n_h: int) -> np.ndarray:
    """Fourier coefficients of a unit square wave.

    The wave is 1 on one interval per period, starting at phase `t_hat`
    and lasting ``duty*T``, and 0 elsewhere:

        s_0 = duty
        s_n = (1 - exp(-2j*pi*n*duty)) / (2j*pi*n) * exp(-j*n*w_p*t_hat)

    Returns coefficients for n = -n_h .. n_h (index n + n_h).  A duty of
    exactly 0 or 1 is degenerate (constant wave); the constant series is
    returned with a warning since the system is then plain LTI.
    """
    if not 0.0 <= duty <= 1.0:
        raise InvalidInputError("duty must lie in [0, 1]")
    if T <= 0.0 or n_h < 0:
        raise InvalidInputError("T must be positive and n_h non-negative")
    coeffs = np.zeros(2 * n_h + 1, dtype=complex)
    coeffs[n_h] = duty
    if duty in (0.0, 1.0):
        warnings.warn(
            f"duty={duty} leaves the damper state constant; the system is LTI",
            DegenerateSwitchingWarning,
            stacklevel=2,
        )
        return coeffs
    w_p = 2.0 * math.pi / T
    for n in range(1, n_h + 1):
        base = (1.0 - cmath.exp(-2j * math.pi * n * duty)) / (2j * math.pi * n)
        shift = cmath.exp(-1j * n * w_p * t_hat)
        coeffs[n_h + n] = base * shift
        coeffs[n_h - n] = (base * shift).conjugate()
    return coeffs


@dataclass(frozen=True)
class FourierMatrixSeries:
    """Matrix Fourier coefficients of an LTP state-space model.

    Arrays are indexed ``[n + n_h]`` for harmonic n.  Coefficients obey
    conjugate symmetry (the time-domain matrices are real), which is
    validated on construction.
    """

    n_h: int
    T: float
    A: np.ndarray  # (2*n_h+1, 2, 2)
    B: np.ndarray  # (2*n_h+1, 2, 1)
    C: np.ndarray  # (2*n_h+1, 1, 2)
    D: np.ndarray  # (2*n_h+1, 1, 1)

    def __post_init__(self):
        if self.T <= 0.0:
            raise InvalidInputError("T must be positive")
        for name in ("A", "B", "C", "D"):
            coeff = getattr(self, name)
            if coeff.shape[0] != 2 * self.n_h + 1:
                raise InvalidInputError(f"{name} must hold 2*n_h+1 coefficients")
            if not np.allclose(coeff, coeff[::-1].conj(), atol=1e-12):
                raise InvalidInputError(f"{name} coefficients break conjugate symmetry")

    @property
    def pump(self) -> float:
        """Pumping frequency 2*pi/T in rad/s."""
        return 2.0 * math.pi / self.T


def fourier_series(lin: SwitchedLinearization, n_h: int) -> FourierMatrixSeries:
    """Fourier coefficients of the switched linearization.

    A(t) = A_off + (A_on - A_off) * s(t) with s the damper square wave,
    so A_0 = A_off + dA*duty and A_n = dA*s_n for n != 0.  B, C, D are
    constant and only contribute at n = 0.
    """
    if n_h < 0:
        raise InvalidInputError("n_h must be non-negative")
    width = 2 * n_h + 1
    s = square_wave_coeffs(lin.duty, lin.t_hat, lin.T, n_h)
    dA = lin.A_on - lin.A_off
    A = np.zeros((width, 2, 2), dtype=complex)
    A += s[:, None, None] * dA[None, :, :]
    A[n_h] += lin.A_off
    B = np.zeros((width, 2, 1), dtype=complex)
    B[n_h] = lin.B
    C = np.zeros((width, 1, 2), dtype=complex)
    C[n_h] = lin.C
    D = np.zeros((width, 1, 1), dtype=complex)
    D[n_h] = lin.D
    return FourierMatrixSeries(n_h=n_h, T=lin.T, A=A, B=B, C=C, D=D)


def _block_toeplitz(coeffs: np.ndarray, n_h: int) -> np.ndarray:
    """Stack Fourier coefficients into the block Toeplitz operator.

    Block (r, c) holds the coefficient of harmonic r - c; blocks outside
    the stored range are zero.
    """
    width = 2 * n_h + 1
    rows, cols = coeffs.shape[1], coeffs.shape[2]
    out = np.zeros((width * rows, width * cols), dtype=complex)
    for r in range(width):
        for c in range(width):
            n = r - c
            if -n_h <= n <= n_h:
                out[r * rows : (r + 1) * rows, c * cols : (c + 1) * cols] = coeffs[n + n_h]
    return out


@dataclass(frozen=True)
class TruncatedHSS:
    """Assembled harmonic state-space operators.

    `A` is the block Toeplitz stack of the state matrix coefficients,
    `N` the modulation operator blockdiag(j*n*pump*I), and `B`, `C`, `D`
    the stacked input/output operators.  Block index b corresponds to
    harmonic n = b - n_h.
    """

    n_h: int
    pump: float
    A: np.ndarray
    N: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n_states(self) -> int:
        return self.A.shape[0]


def build_hss(series: FourierMatrixSeries) -> TruncatedHSS:
    """Assemble the truncated harmonic state-space operators."""
    n_h = series.n_h
    width = 2 * n_h + 1
    n_state = series.A.shape[1]
    A = _block_toeplitz(series.A, n_h)
    B = _block_toeplitz(series.B, n_h)
    C = _block_toeplitz(series.C, n_h)
    D = _block_toeplitz(series.D, n_h)
    harmonics = np.arange(-n_h, n_h + 1)
    N = np.diag(np.repeat(1j * harmonics * series.pump, n_state))
    return TruncatedHSS(n_h=n_h, pump=series.pump, A=A, N=N, B=B, C=C, D=D)


@dataclass
class HarmonicTransferSet:
    """Harmonic transfer functions sampled on a frequency grid.

    `harmonics[n][i]` is G_n at grid point `omega_grid[i]`.  Under the
    "input" convention G_n(j*w) takes an input line at w to the output
    line at w + n*pump; under the "output" convention the argument is
    the output frequency instead, i.e. the value at w is the gain onto
    the output line at w from the input line at w - n*pump.  The two
    contain the same information on shifted grids; estimation from data
    naturally produces the output convention.
    """

    omega_grid: np.ndarray
    harmonics: dict
    n_h_kept: int
    convention: str = "input"
    warnings: list = field(default_factory=list)
    excitation_mask: dict | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.convention not in ("input", "output"):
            raise InvalidInputError("convention must be 'input' or 'output'")
        for n, values in self.harmonics.items():
            if len(values) != len(self.omega_grid):
                raise InvalidInputError(f"harmonic {n} length mismatch with grid")


def default_grid(f_hi: float = 7.0, n_points: int = 600) -> np.ndarray:
    """Uniform grid over (0, f_hi] Hz, returned in rad/s."""
    return 2.0 * math.pi * f_hi * np.arange(1, n_points + 1) / n_points


def eval_htf(
    hss: TruncatedHSS,
    omega_grid,
    n_keep: int | None = None,
    convention: str = "input",
) -> HarmonicTransferSet:
    """Evaluate harmonic transfer functions on a frequency grid.

    Solves ``(j*w*I - (A - N)) X = B`` at every grid point and reads the
    harmonic gains off the resulting input/output map: the central block
    column for the "input" convention, the central block row for the
    "output" convention.  A grid point where the system is exactly
    singular is nudged by one part in 1e9 (with a warning); a condition
    number above 1e12 also gets a warning attached.

    Parameters
    ----------
    hss : TruncatedHSS
    omega_grid : array of rad/s frequencies
    n_keep : int or None
        Harmonic orders to keep, |n| <= n_keep (default: all of them).
    convention : "input" or "output"
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise InvalidInputError("omega_grid must be a non-empty 1-D array")
    if n_keep is None:
        n_keep = hss.n_h
    if n_keep > hss.n_h:
        raise InvalidInputError(f"n_keep={n_keep} exceeds truncation order n_h={hss.n_h}")

    n_h = hss.n_h
    gen = hss.A - hss.N
    eye = np.eye(hss.n_states, dtype=complex)
    orders = range(-n_keep, n_keep + 1)
    out = {n: np.empty(omega_grid.size, dtype=complex) for n in orders}
    notes = []

    for i, omega in enumerate(omega_grid):
        w = float(omega)
        gmap = None
        for attempt in range(2):
            M = 1j * w * eye - gen
            with warnings.catch_warnings():
                # Exact singularity is handled below via rcond + nudge; scipy's
                # advisory warning from the factorization would just be noise.
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(M, check_finite=False)
            anorm = np.linalg.norm(M, 1)
            rcond, info = lapack.zgecon(lu, anorm)
            if info < 0 or rcond == 0.0 or not np.isfinite(rcond):
                if attempt == 0:
                    w = float(omega) * (1.0 + SINGULAR_NUDGE) if omega != 0.0 else SINGULAR_NUDGE
                    notes.append(
                        f"omega={float(omega):.9g}: singular system, perturbed to {w:.12g}"
                    )
                    continue
                raise SingularFrequencyError(
                    f"harmonic balance system singular at omega={float(omega):.9g}"
                )
            if rcond < 1.0 / COND_WARN:
                notes.append(
                    f"omega={float(omega):.9g}: condition number ~{1.0 / rcond:.3e}"
                )
            X = sla.lu_solve((lu, piv), hss.B, check_finite=False)
            gmap = hss.C @ X + hss.D
            break
        for n in orders:
            if convention == "output":
                out[n][i] = gmap[n_h, n_h - n]
            else:
                out[n][i] = gmap[n_h + n, n_h]

    return HarmonicTransferSet(
        omega_grid=omega_grid.copy(),
        harmonics=out,
        n_h_kept=n_keep,
        convention=convention,
        warnings=notes,
    )


def write_htf_csv(hts: HarmonicTransferSet, path) -> None:
    """Write `omega_rad_s,n,re,im` rows, harmonics ascending."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("omega_rad_s,n,re,im\n")
        for n in sorted(hts.harmonics):
            values = hts.harmonics[n]
            for omega, val in zip(hts.omega_grid, values):
                handle.write("%.17g,%d,%.17g,%.17g\n" % (omega, n, val.real, val.imag))


def read_htf_csv(path, convention: str = "input") -> HarmonicTransferSet:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        raise InvalidInputError(f"{path}: expected 4 columns omega_rad_s,n,re,im")
    orders = np.unique(data[:, 1]).astype(int)
    harmonics = {}
    grid = None
    for n in orders:
        rows = data[data[:, 1] == n]
        order = np.argsort(rows[:, 0])
        rows = rows[order]
        if grid is None:
            grid = rows[:, 0]
        elif rows.shape[0] != grid.shape[0] or np.max(np.abs(rows[:, 0] - grid)) > 1e-9:
            raise InvalidInputError(f"{path}: harmonics sampled on different grids")
        harmonics[int(n)] = rows[:, 2] + 1j * rows[:, 3]
    if grid is None:
        raise InvalidInputError(f"{path}: no data rows")
    return HarmonicTransferSet(
        omega_grid=grid,
        harmonics=harmonics,
        n_h_kept=int(np.max(np.abs(orders))) if orders.size else 0,
        convention=convention,
    )
