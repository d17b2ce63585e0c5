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

from .errors import DegenerateSwitchingWarning, InvalidInputError, SingularFrequencyError
from .model import SwitchedLinearization

#: Condition number beyond which a grid point gets a warning attached.
COND_WARN = 1e12
#: Relative perturbation applied to a grid frequency that is singular.
SINGULAR_NUDGE = 1e-9
#: Matrix entries per batch of grid points in `eval_htf`; bounds the
#: memory held by the stacked systems and their inverses.
_BATCH_ENTRIES = 2**16


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
    lag = np.subtract.outer(np.arange(width), np.arange(width))
    inside = np.abs(lag) <= n_h
    blocks = np.zeros((width, width, rows, cols), dtype=complex)
    blocks[inside] = coeffs[lag[inside] + n_h]
    return blocks.transpose(0, 2, 1, 3).reshape(width * rows, width * cols)


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


def _norm1(M: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest absolute column sum) of a stack."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


def eval_htf(
    hss: TruncatedHSS,
    omega_grid,
    n_keep: int | None = None,
    convention: str = "input",
) -> HarmonicTransferSet:
    """Evaluate harmonic transfer functions on a frequency grid.

    Inverts ``M = j*w*I - (A - N)`` for a batch of grid points at a time
    and forms only the kept harmonic gains of the input/output map
    ``C M^-1 B + D``: the central block column for the "input"
    convention, the central block row for the "output" convention.  A
    grid point where the system is exactly singular is nudged by one part
    in 1e9 (with a warning); a condition number ``|M|_1 |M^-1|_1`` above
    1e12 also gets a warning attached.

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
    if not np.all(np.isfinite(omega_grid)):
        raise InvalidInputError("omega_grid must be finite")
    if n_keep is None:
        n_keep = hss.n_h
    if n_keep > hss.n_h:
        raise InvalidInputError(f"n_keep={n_keep} exceeds truncation order n_h={hss.n_h}")

    n_h = hss.n_h
    gen = hss.A - hss.N
    eye = np.eye(hss.n_states, dtype=complex)
    keep = np.arange(-n_keep, n_keep + 1)
    if convention == "output":
        # gain onto output line 0 from input line -n: row n_h, column n_h - n
        def gains_of(inv):
            return (hss.C[n_h] @ inv) @ hss.B[:, n_h - keep] + hss.D[n_h, n_h - keep]
    else:
        # gain from input line 0 onto output line n: row n_h + n, column n_h
        def gains_of(inv):
            return (inv @ hss.B[:, n_h]) @ hss.C[n_h + keep].T + hss.D[n_h + keep, n_h]

    def system(w):
        M = (1j * w)[:, None, None] * eye
        M -= gen
        return M

    solved = omega_grid.copy()
    gains = np.empty((keep.size, omega_grid.size), dtype=complex)
    cond = np.empty(omega_grid.size)
    step = max(1, _BATCH_ENTRIES // hss.n_states**2)
    for start in range(0, omega_grid.size, step):
        w = solved[start : start + step]
        M = system(w)
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            # an exact zero pivot makes inv raise and the determinant 0
            singular = np.linalg.slogdet(M)[0] == 0
            w[singular] = np.where(
                w[singular] != 0.0, w[singular] * (1.0 + SINGULAR_NUDGE), SINGULAR_NUDGE
            )
            M = system(w)
            try:
                inv = np.linalg.inv(M)
            except np.linalg.LinAlgError:
                bad = omega_grid[start : start + step][np.linalg.slogdet(M)[0] == 0]
                raise SingularFrequencyError(
                    f"harmonic balance system singular at omega={bad[0]:.9g}"
                ) from None
        cond[start : start + step] = _norm1(M) * _norm1(inv)
        gains[:, start : start + step] = gains_of(inv).T

    nudged = solved != omega_grid
    notes = []
    for i in np.flatnonzero(nudged | (cond > COND_WARN)):
        if nudged[i]:
            notes.append(
                f"omega={omega_grid[i]:.9g}: singular system, perturbed to {solved[i]:.12g}"
            )
        if cond[i] > COND_WARN:
            notes.append(f"omega={omega_grid[i]:.9g}: condition number ~{cond[i]:.3e}")

    return HarmonicTransferSet(
        omega_grid=omega_grid.copy(),
        harmonics={int(n): gains[j] for j, n in enumerate(keep)},
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
