"""Harmonic balance of the switched linearization.

A linear time-periodic system with matrix Fourier series A(t) =
sum_n A_n exp(j*n*w_p*t) maps exponentially modulated periodic signals
to signals of the same class.  Collecting the harmonic coefficients of
state, input and output into stacked vectors turns the dynamics into an
algebraic system

    s X = (A_blk - N_blk) X + B_blk U,     Y = C_blk X + D_blk U,

where A_blk is block Toeplitz in the Fourier coefficients (block (r, c)
holds A_{r-c}) and N_blk = blockdiag(j*n*w_p*I) accounts for the
modulation of each harmonic line.  The plant's input and output maps B,
C, D are constant: their only Fourier coefficient is at harmonic 0, so
B_blk, C_blk and D_blk are block diagonal with B, C and D in every
block.  They are never formed; `eval_htf` places B and C at the
harmonic blocks a gain reads, and D at harmonic 0.  N_blk is diagonal
and is folded into the one stored operator, the generator
A_blk - N_blk.  Solving at s = j*w and reading off the central block
column of the resulting input/output map gives the harmonic transfer
functions G_n(j*w): the gain from an input line at w to the output line
at w + n*w_p.

Everything here is truncated to `n_h` harmonics per side.  Truncation
converges quickly for the damper square wave because its coefficients
decay like 1/n.

The generator A_blk - N_blk does not depend on w, so `eval_htf`
diagonalizes it once per call and solves each grid point in the modal
basis at O(n^2) instead of O(n^3) per point.  The time-domain system is
real, so the coefficients of harmonics n and -n are complex conjugates
and conj(A_blk - N_blk) = P (A_blk - N_blk) P, with P swapping n and -n
(Wereley, Analysis and Control of Linear Periodically Time Varying
Systems, MIT PhD thesis, 1991).  In cosine and sine coordinates, W x =
(x_0, x_n + x_-n, j*(x_n - x_-n)), such a generator G is therefore a
real matrix R = W G W^-1, and the solve never leaves them: R = U L U^-1
with real eigenvectors U (a complex pair as its real and imaginary
parts, L holding a 2 x 2 block for it) and one real inverse, so
(j*w - G)^-1 = W^-1 U (j*w - L)^-1 U^-1 W, and U and U^-1 multiply the
real and imaginary parts of each complex vector.  One step of
fixed-precision iterative refinement against j*w - R, its residual a
real product with R, follows every modal solve (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12); it brings the result to
working accuracy even where U is ill conditioned or, for a defective
generator, not a basis at all.  Gains read at the output frequency are
gains of the dual system, whose generator G^T obeys the same symmetry,
so one solve serves both conventions.  The condition figure attached
to a grid point is the upper bound (|w| + |G|_1) 4 |U|_1 |U^-1|_1
max|1/(j*w - lam)| on |j*w - G|_1 |(j*w - G)^-1|_1: |W|_1 = 2,
|W^-1|_1 = 1, and the 1-norm of a pair's 2 x 2 block is at most twice
the larger |1/(j*w - lam)| of the pair.  For the dual system j*w - G is
M^T, M = j*w - (A_blk - N_blk), so the figure bounds the 1-norm
condition of M^T, |M|_inf |M^-1|_inf.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSwitchingWarning,
    InvalidInputError,
    SingularFrequencyError,
    check_integer,
    check_real,
)
from .model import SwitchedLinearization

#: Condition number beyond which a grid point gets a warning attached.
COND_WARN = 1e12
#: Relative perturbation applied to a grid frequency that is singular.
SINGULAR_NUDGE = 1e-9
#: Grid points times states in one batch of `eval_htf`, and entries in
#: one block of rows of `_real_form`; bounds the scratch of each.
_BATCH_ENTRIES = 2**12
#: Rows that `write_table` formats at a time.
_CSV_BLOCK_ROWS = 256


def _check_conjugate(residue: np.ndarray, column: np.ndarray, what: str) -> None:
    """Refuse `what` unless harmonics n and -n are complex conjugates:
    max|residue| <= 1e-12 * max(|column|_1, 1), where `residue` is c_n -
    conj(c_-n) of a series or the (no larger) imaginary part of its HSS
    generator's real form, and `column` the harmonic-0 block column, the
    same numbers for both.  So a series that passes builds one that does."""
    if np.max(np.abs(residue)) > 1e-12 * max(np.linalg.norm(column, 1), 1.0):
        raise InvalidInputError(f"{what}: harmonics n and -n are not complex conjugates")


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
    check_integer("n_h", n_h, 0)
    check_real("T", T, 0.0, strict=True)
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

    `A` is indexed ``[n + n_h]`` for harmonic n.  Its coefficients are
    finite and obey conjugate symmetry (the time-domain matrix is real),
    which `_check_conjugate` validates on construction.  The input and
    output maps `B`, `C` and `D` are constant: real and finite, which
    is checked too.
    """

    n_h: int
    T: float
    A: np.ndarray  # (2*n_h+1, 2, 2)
    B: np.ndarray  # (2, 1)
    C: np.ndarray  # (1, 2)
    D: np.ndarray  # (1, 1)

    def __post_init__(self):
        check_real("T", self.T, 0.0, strict=True)
        A = self.A
        if A.shape[0] != 2 * self.n_h + 1 or not np.all(np.isfinite(A)):
            raise InvalidInputError("A must hold 2*n_h+1 finite coefficients")
        _check_conjugate(A - A[::-1].conj(), A.reshape(-1, A.shape[2]), "A")
        for name in ("B", "C", "D"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)) or np.any(np.imag(value)):
                raise InvalidInputError(f"{name} must be real and finite")

    @property
    def pump(self) -> float:
        """Pumping frequency 2*pi/T in rad/s."""
        return 2.0 * math.pi / self.T


def fourier_series(lin: SwitchedLinearization, n_h: int) -> FourierMatrixSeries:
    """Fourier coefficients of the switched linearization.

    A(t) = A_off + (A_on - A_off) * s(t) with s the damper square wave,
    so A_0 = A_off + dA*duty and A_n = dA*s_n for n != 0.  B, C and D
    (as a 1 x 1 matrix) are constant and are kept as they are.
    """
    s = square_wave_coeffs(lin.duty, lin.t_hat, lin.T, n_h)
    dA = lin.A_on - lin.A_off
    A = np.zeros((2 * n_h + 1, 2, 2), dtype=complex)
    A += s[:, None, None] * dA[None, :, :]
    A[n_h] += lin.A_off
    return FourierMatrixSeries(
        n_h=n_h, T=lin.T, A=A, B=lin.B, C=lin.C, D=np.reshape(lin.D, (1, 1))
    )


def _block_toeplitz(coeffs: np.ndarray, n_h: int) -> np.ndarray:
    """Stack Fourier coefficients into the block Toeplitz operator.

    Block (r, c) holds the coefficient of harmonic r - c; blocks outside
    the stored range are zero.  The blocks are written in place through
    a transposed view, so the operator is the only array of its size.
    """
    width = 2 * n_h + 1
    rows, cols = coeffs.shape[1], coeffs.shape[2]
    lag = np.subtract.outer(np.arange(width), np.arange(width))
    inside = np.abs(lag) <= n_h
    op = np.zeros((width, rows, width, cols), dtype=complex)
    op.transpose(0, 2, 1, 3)[inside] = coeffs[lag[inside] + n_h]
    return op.reshape(width * rows, width * cols)


@dataclass(frozen=True)
class TruncatedHSS:
    """Assembled harmonic state-space operators.

    `generator` is ``A_blk - N_blk``: the block Toeplitz stack of the
    state matrix coefficients minus the modulation operator
    blockdiag(j*n*pump*I).  Block index b corresponds to harmonic
    n = b - n_h.  `B` (states x 1), `C` (1 x states) and `D` (1 x 1)
    are the plant's constant input and output maps, the blocks of the
    block-diagonal B_blk, C_blk and D_blk.
    """

    n_h: int
    pump: float
    generator: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]


def build_hss(series: FourierMatrixSeries) -> TruncatedHSS:
    """Assemble the truncated harmonic state-space operators: the
    generator ``A_blk - N_blk``, formed once (N_blk is subtracted from
    its diagonal in place), and the series' constant B, C and D."""
    n_h = series.n_h
    harmonics = np.arange(-n_h, n_h + 1)
    gen = _block_toeplitz(series.A, n_h)
    gen[np.diag_indices_from(gen)] -= np.repeat(1j * harmonics * series.pump, series.A.shape[1])
    return TruncatedHSS(
        n_h=n_h, pump=series.pump, generator=gen, B=series.B, C=series.C, D=series.D
    )


@dataclass
class HarmonicTransferSet:
    """Harmonic transfer functions sampled on a frequency grid.

    `harmonics[n][i]` is G_n at grid point `omega_grid[i]`.  Under the
    "input" convention G_n(j*w) takes an input line at w to the output
    line at w + n*pump; under the "output" convention the argument is
    the output frequency instead, i.e. the value at w is the gain onto
    the output line at w from the input line at w - n*pump.  The two
    contain the same information on shifted grids; estimation from data
    naturally produces the output convention.  `sensitivities[i][n]`, when
    `eval_htf` was asked for them, is the derivative of `harmonics[n]`
    along the i-th state-operator direction it was given.
    """

    omega_grid: np.ndarray
    harmonics: dict
    n_h_kept: int
    convention: str = "input"
    warnings: list = field(default_factory=list)
    excitation_mask: dict | None = None
    diagnostics: dict | None = None
    sensitivities: list = field(default_factory=list)

    def __post_init__(self):
        if self.convention not in ("input", "output"):
            raise InvalidInputError("convention must be 'input' or 'output'")
        for n, values in self.harmonics.items():
            if len(values) != len(self.omega_grid):
                raise InvalidInputError(f"harmonic {n} length mismatch with grid")


def _to_cos_sin(v: np.ndarray, n_h: int) -> np.ndarray:
    """``W v`` for the vectors along the first axis of `v`, as a new
    complex array of the shape of `v`.

    W keeps harmonic 0 and maps each pair (x_n, x_-n) to the cosine
    entry x_n + x_-n and the sine entry j*(x_n - x_-n), n = 1..n_h,
    ordered harmonic 0, cosines, sines.  Harmonics n and -n are the
    state blocks n_h + n and n_h - n, so both are slices of `v`, the
    second with its blocks reversed; exact but for the sums.
    """
    x = v.reshape((2 * n_h + 1, -1) + v.shape[1:])
    out = np.empty(v.shape, dtype=complex)
    o = out.reshape(x.shape)
    pos, neg = x[n_h + 1 :], x[:n_h][::-1]
    o[0] = x[n_h]
    np.add(pos, neg, out=o[1 : n_h + 1])
    sin = np.subtract(pos, neg, out=o[n_h + 1 :])
    sin *= 1j
    return out


def _by_s_inverse(a: np.ndarray, n_h: int) -> None:
    """Multiply `a` by ``S^-1`` along its first axis, in place: halve its
    cosine entries and its sine entries negated.  S = diag(1, 2, -2) =
    W W^T, so ``W^-1 = W^T S^-1`` and ``W^-T = S^-1 W``.  Powers of two,
    so exact."""
    per = a.shape[0] // (2 * n_h + 1)
    a[per : per * (n_h + 1)] *= 0.5
    a[per * (n_h + 1) :] *= -0.5


def _real_form(gen: np.ndarray, n_h: int) -> np.ndarray:
    """The operator `gen` in cosine/sine coordinates, ``W gen W^-1``, as
    one float64 array, rows and columns ordered harmonic 0, cosines,
    sines.

    It is written a few harmonics of rows at a time: the rows of
    ``W gen`` are sums and differences of row blocks of `gen`, and each
    of them times W^-1 is ``(S^-1 W row^T)^T`` (`_by_s_inverse`), so no
    temporary holds more than about `_BATCH_ENTRIES` entries.  `gen` may
    be a transposed view.  For the HSS of a real system (conj(gen) =
    P gen P, P swapping n and -n) the result is real; the imaginary
    parts left out must pass `_check_conjugate`, or `InvalidInputError`
    is raised.
    """
    n = gen.shape[0]
    per = n // (2 * n_h + 1)
    m = n_h * per
    real = np.empty((n, n))
    dropped = 0.0

    def put(at, rows):
        nonlocal dropped
        cols = _to_cos_sin(rows.T, n_h)
        _by_s_inverse(cols, n_h)
        real[at : at + rows.shape[0]] = cols.T.real
        dropped = max(dropped, np.max(np.abs(cols.imag)))

    put(0, gen[m : m + per])
    hop = max(1, _BATCH_ENTRIES // (per * n))
    for lo in range(0, n_h, hop):
        k = min(hop, n_h - lo)
        # harmonics lo+1..lo+k and, in the same order, their mirrors
        p = gen[m + per * (lo + 1) : m + per * (lo + k + 1)].reshape(k, per, n)
        q = gen[m - per * (lo + k) : m - per * lo].reshape(k, per, n)[::-1]
        put(per * (1 + lo), (p + q).reshape(-1, n))
        put(per * (1 + n_h + lo), (1j * (p - q)).reshape(-1, n))
    _check_conjugate(dropped, gen[:, m : m + per], "not the HSS of a real system")
    return real


def _real_eig(form: np.ndarray):
    """Eigenvalues and real eigenvectors of the real matrix `form`.

    Returns ``(lam, U, n_real)`` with ``form U = U L``: the first
    `n_real` columns of U are the eigenvectors of the real eigenvalues,
    then come the real parts and then the imaginary parts of one
    eigenvector of each complex pair, taken at the eigenvalue a + j*b
    with b > 0 (LAPACK stores them as adjacent columns; here each part
    is contiguous).  L is diagonal on the real eigenvalues and holds
    [[a, b], [-b, a]] on the two columns of a pair.  `lam` lists the
    eigenvalues in that column order, a + j*b at the real part and
    a - j*b at the imaginary part.  U is the transpose of a row-major
    array, which BLAS multiplies fastest.
    """
    lam, vectors = np.linalg.eig(form)
    real = np.flatnonzero(lam.imag == 0)
    upper = np.flatnonzero(lam.imag > 0)
    n_real, pairs = real.size, upper.size
    U_t = np.empty(vectors.shape)
    U_t[:n_real] = vectors.real[:, real].T
    U_t[n_real : n_real + pairs] = vectors.real[:, upper].T
    U_t[n_real + pairs :] = vectors.imag[:, upper].T
    return np.concatenate([lam[real], lam[upper], lam[upper].conj()]), U_t.T, n_real


def _at_blocks(value: np.ndarray, blocks, width: int) -> np.ndarray:
    """Rows over `width` state blocks that hold the constant map `value`
    at block ``blocks[i]`` of row i and zeros elsewhere: rows of C_blk
    or, transposed, columns of B_blk."""
    value = np.ravel(value)
    rows = np.zeros((len(blocks), width, value.size), dtype=complex)
    rows[np.arange(len(blocks)), blocks] = value
    return rows.reshape(len(blocks), -1)


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two frequency grids hold the same points, to 1e-9 rad/s."""
    return a.shape == b.shape and not np.max(np.abs(a - b), initial=0.0) > 1e-9


def default_grid(f_hi: float = 7.0, n_points: int = 600) -> np.ndarray:
    """Uniform grid of `n_points` (at least 1) over (0, f_hi] Hz, f_hi
    finite and positive, returned in rad/s."""
    check_real("f_hi", f_hi, 0.0, strict=True)
    check_integer("n_points", n_points, 1)
    return 2.0 * math.pi * f_hi * np.arange(1, n_points + 1) / n_points


def eval_htf(
    hss: TruncatedHSS,
    omega_grid,
    n_keep: int | None = None,
    convention: str = "input",
    dA=(),
) -> HarmonicTransferSet:
    """Evaluate harmonic transfer functions on a frequency grid.

    Only the kept harmonic gains of ``C_blk M^-1 B_blk + D_blk``, ``M =
    j*w*I - generator``, are formed, D at order 0 only.  For the "input"
    convention they are C at blocks n = -n_keep..n_keep times the
    solution of M u = f, f being B at harmonic block 0.  The "output"
    convention's gains ``C_0 M^-1 B_-n`` are the "input" gains of the
    dual system: the generator's transpose (a view, not a copy), C^T at
    block 0 and B^T at blocks -n.  So one column solve serves both.

    It diagonalizes that system's generator G once, in cosine/sine
    coordinates (module docstring): ``R = W G W^-1 = U L U^-1`` with R,
    U and U^-1 real, so that ``(j*w - G)^-1 = W^-1 U (j*w - L)^-1 U^-1
    W`` costs O(n^2) per grid point.  Each modal solve u' is followed by
    one step of iterative refinement against ``j*w - R``, its residual
    ``f' - j*w u' + R u'`` a real product, which recovers full working
    accuracy when the eigenvectors are ill conditioned.  `hss` must be
    the HSS of a real system, as every `build_hss` output is: a
    generator that breaks `_check_conjugate` raises `InvalidInputError`,
    and so does a generator that is not 2*n_h+1 square blocks or a `B`,
    `C` or `D` whose shape does not fit them.  A grid point within
    rounding of an eigenvalue (``min|j*w - lam| <= n*eps*max(|G|_1,
    1)``) is nudged by one part in 1e9 (with a warning); a point whose
    condition bound ``(|w| + |G|_1) 4 |U|_1 |U^-1|_1 max|1/(j*w -
    lam)|`` exceeds 1e12 also gets a warning attached.  The bound is on
    ``|j*w - G|_1 |(j*w - G)^-1|_1``; for the "output" convention j*w - G
    is M^T, so it bounds ``|M|_inf |M^-1|_inf``.

    For each operator ``dA_i`` in `dA` the same factors also give the
    sensitivities ``C_blk M^-1 dA_i M^-1 B_blk`` of the kept gains: their
    derivative with respect to a parameter theta_i on which the generator
    depends as ``d generator/dtheta_i = dA_i`` (B, C, D and the pump held
    fixed).  The right-hand side of each is the real form of ``dA_i``
    (of its transpose for the dual system) times the refined u', so a
    direction that is not the HSS of a real system raises
    `InvalidInputError`.  They go to `sensitivities`, one dict per
    operator keyed like `harmonics`; with no operators nothing extra is
    computed.  Every argument is checked before any solve runs.

    Parameters
    ----------
    hss : TruncatedHSS
    omega_grid : 1-D array of real rad/s frequencies
    n_keep : int in 0..n_h, or None
        Harmonic orders to keep, |n| <= n_keep (default: all of them).
    convention : "input" or "output"
    dA : sequence of (n_states, n_states) arrays
        Finite state-operator directions to differentiate along (default
        none).
    """
    if convention not in ("input", "output"):
        raise InvalidInputError(f"convention must be 'input' or 'output', not {convention!r}")
    try:
        omega_grid = np.asarray(omega_grid)
    except ValueError as exc:  # a ragged sequence
        raise InvalidInputError(f"omega_grid must be an array of real numbers ({exc})") from None
    if omega_grid.dtype.kind not in "iuf":
        raise InvalidInputError(f"omega_grid must hold real numbers, not {omega_grid.dtype}")
    omega_grid = omega_grid.astype(float, copy=False)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise InvalidInputError("omega_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(omega_grid)):
        raise InvalidInputError("omega_grid must be finite")
    if n_keep is None:
        n_keep = hss.n_h
    check_integer("n_keep", n_keep, 0, hss.n_h)
    n_h = hss.n_h
    width = 2 * n_h + 1
    per = hss.n_states // width
    if hss.generator.shape != (width * per, width * per) or per == 0:
        raise InvalidInputError(
            f"generator must be square with 2*n_h+1 = {width} equal state blocks"
        )
    for name, shape in (("B", (per, 1)), ("C", (1, per)), ("D", (1, 1))):
        if np.shape(getattr(hss, name)) != shape:
            raise InvalidInputError(
                f"{name} must be {shape[0]} x {shape[1]} to fit the generator's "
                f"{per}-state blocks"
            )
    dA = [np.asarray(d) for d in dA]
    if any(d.shape != hss.generator.shape for d in dA):
        raise InvalidInputError("each dA must have the shape of the state operator")
    if not all(np.all(np.isfinite(d)) for d in dA):
        raise InvalidInputError("each dA must be finite")

    keep = np.arange(-n_keep, n_keep + 1)
    if convention == "input":
        # gain from input line 0 onto output line n: B at block 0, C at
        # block n
        gen, into, onto, at = hss.generator, hss.B, hss.C, n_h + keep
    else:
        # the dual system: gain onto output line 0 from input line -n
        gen, into, onto, at = hss.generator.T, hss.C, hss.B, n_h - keep
        dA = [d.T for d in dA]
    R = _real_form(gen, n_h)
    dR = [_real_form(d, n_h) for d in dA]
    n = hss.n_states
    gen_norm = np.linalg.norm(gen, 1)
    try:
        lam, U, n_real = _real_eig(R)
        U_inv = np.linalg.inv(U.T).T  # like U, the transpose of a row-major array
    except np.linalg.LinAlgError as exc:
        raise SingularFrequencyError(
            f"harmonic state operator has no usable eigenbasis ({exc})"
        ) from None
    cond_U = 4.0 * np.linalg.norm(U, 1) * np.linalg.norm(U_inv, 1)
    tiny = n * np.finfo(float).eps * max(gen_norm, 1.0)
    pairs = (n - n_real) // 2
    # the column of U paired with each column: itself for a real eigenvalue
    swap = np.r_[
        np.arange(n_real), np.arange(n_real + pairs, n), np.arange(n_real, n_real + pairs)
    ]

    # W keeps harmonic 0, so `first`, the input map at block 0, is its own
    # image f' at entry 0; a gain is o . u = (W^-T o) . u', W^-T = S^-1 W
    first = np.zeros(n)
    first[:per] = np.ravel(into)
    out = _to_cos_sin(_at_blocks(onto, at, width).T, n_h)
    _by_s_inverse(out, n_h)
    feed = np.where(keep == 0, complex(np.ravel(hss.D)[0]), 0j)
    z_first = (U_inv @ first)[:, None, None]
    step = max(1, _BATCH_ENTRIES // n)
    # Vectors are the columns of (n, k, points) arrays, k vectors per grid
    # point: the coordinate maps and the blocks act on contiguous slabs,
    # and each point's product is one BLAS call on a strided matrix.

    def scratch(names, k):
        """For a batch of `points` grid points, the arrays `names` of shape
        (n, k, points): views of one flat array that every batch reuses,
        so that the loop makes no temporary of their size."""
        flat = np.empty(len(names) * n * k * step, dtype=complex)
        return lambda points: dict(
            zip(names, flat[: len(names) * n * k * points].reshape(-1, n, k, points))
        )

    # the solve of the gains (u, x, res and z) and the blocks of each
    # point (r and cross); the solve of the sensitivities and their
    # right-hand sides f
    gain_buffers = scratch(("u", "x", "res", "z", "r", "cross"), 1)
    sens_buffers = scratch(("u", "x", "res", "z", "f"), len(dA)) if dA else None

    def columns(v):
        """Each column of v as the (n, 2) real matrix [Re v, Im v]."""
        return v.view(float).reshape(n, -1, 2).transpose(1, 0, 2)

    def times(A, v, product):
        """The real A times each column of v, into `product`."""
        np.matmul(A, columns(v), out=columns(product))
        return product

    # the kept outputs of U y: (U^T out) . y
    out_modal = np.empty(out.shape + (1,), dtype=complex)
    out_modal = times(U.T, out[:, :, None], out_modal)[:, :, 0]

    def blocks(z, work):
        """(j*w - L)^-1 times each column of z, in place: with r+- =
        1/(j*w - lam) at a +- j*b, the block (j*w - [[a, b], [-b, a]])^-1
        of a pair is [[p, q], [-q, p]], p = (r+ + r-)/2, q = (r+ - r-)/2j."""
        np.take(z, swap, axis=0, out=work, mode="clip")
        work *= cross
        z *= r
        z += work
        return z

    def solve(f, buf, whole):
        """The kept outputs of u' = U (j*w - L)^-1 U^-1 f', given its modal
        part z = (j*w - L)^-1 U^-1 f' in `buf`, after one step of
        refinement against j*w - R.  Also u', refined if `whole`."""
        u, x, res, z = buf["u"], buf["x"], buf["res"], buf["z"]
        times(U, z, u)
        times(R, u, res)
        res += f
        res -= np.multiply(u, jw, out=x)
        blocks(times(U_inv, res, z), x)
        # each column of u and z as a (1, n) row
        kept = u.reshape(n, -1).T[:, None, :] @ out
        kept += z.reshape(n, -1).T[:, None, :] @ out_modal
        if whole:
            u += times(U, z, x)
        return kept.reshape(u.shape[1], u.shape[2], -1), u

    # Every product below is a stack of products, one per grid point, so a
    # point's result does not depend on the batch it is in.
    solved = omega_grid.copy()
    gains = np.empty((keep.size, omega_grid.size), dtype=complex)
    sens = np.empty((len(dA), keep.size, omega_grid.size), dtype=complex)
    cond = np.empty(omega_grid.size)
    for start in range(0, omega_grid.size, step):
        w = solved[start : start + step]
        buf = gain_buffers(w.size)
        r, cross = buf["r"], buf["cross"]
        jw = 1j * w
        np.subtract(jw, lam[:, None, None], out=r)
        gap = np.abs(r).min(axis=0)[0]
        singular = gap <= tiny
        if singular.any():
            w[singular] = np.where(
                w[singular] != 0.0, w[singular] * (1.0 + SINGULAR_NUDGE), SINGULAR_NUDGE
            )
            jw = 1j * w
            np.subtract(jw, lam[:, None, None], out=r)
            gap = np.abs(r).min(axis=0)[0]
            if np.any(gap <= tiny):
                bad = omega_grid[start : start + step][gap <= tiny]
                raise SingularFrequencyError(
                    f"harmonic balance system singular at omega={bad[0]:.9g}"
                )
        cond[start : start + step] = (np.abs(w) + gen_norm) * cond_U / gap
        np.divide(1.0, r, out=r)
        # from r and its value at the paired column: p on both columns of a
        # pair, q on the real-part one and -q on the imaginary-part one;
        # r and 0 for a real eigenvalue
        r_swap = np.take(r, swap, axis=0, out=buf["x"], mode="clip")
        np.subtract(r_swap, r, out=cross)
        cross *= 0.5j
        r += r_swap
        r *= 0.5
        buf["z"][...] = z_first
        blocks(buf["z"], buf["x"])
        kept, u = solve(first[:, None, None], buf, bool(dA))
        gains[:, start : start + step] = kept[0].T + feed[:, None]
        if dA:
            # f' = R_i u', the real form of dA_i times the refined u'
            buf = sens_buffers(w.size)
            f = buf["f"]
            for i, d in enumerate(dR):
                times(d, u, f[:, i : i + 1])
            blocks(times(U_inv, f, buf["z"]), buf["x"])
            kept = solve(f, buf, False)[0]
            sens[:, :, start : start + step] = kept.transpose(0, 2, 1)

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
        sensitivities=[{int(n): s[j] for j, n in enumerate(keep)} for s in sens],
    )


_HTF_HEADER = "omega_rad_s,n,re,im"
_CONVENTION_TAG = "# convention="


def write_table(path, header: str, table, fmt="%.17g") -> None:
    """Write a 2-D table as CSV after an ASCII header: the bytes of
    ``np.savetxt(path, table, fmt=fmt, delimiter=",", header=header,
    comments="")``.

    `fmt` is one format for every column or a list of one per column.
    Each block of `_CSV_BLOCK_ROWS` rows is formatted by one ``%`` on
    Python floats, which is about twice as fast as savetxt's row-by-row
    formatting of numpy scalars and gives the same text; the blocks bound
    the memory the text and the floats take.
    """
    table = np.asarray(table)
    row = ",".join([fmt] * table.shape[1] if isinstance(fmt, str) else fmt) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            handle.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def write_htf_csv(hts: HarmonicTransferSet, path) -> None:
    """Write `omega_rad_s,n,re,im` rows, harmonics ascending, after a
    `# convention=<input|output>` line that `read_htf_csv` reads back."""
    rows = [
        np.column_stack([hts.omega_grid, np.full(hts.omega_grid.size, n), g.real, g.imag])
        for n, g in sorted(hts.harmonics.items())
    ]
    write_table(
        path,
        f"{_HTF_HEADER}\n{_CONVENTION_TAG}{hts.convention}",
        np.reshape(rows, (-1, 4)),
        fmt=["%.17g", "%d", "%.17g", "%.17g"],
    )


def read_htf_csv(path) -> HarmonicTransferSet:
    """Read a file written by `write_htf_csv`, convention included.

    Content that is not such a file (no header or convention line, rows
    that are not four finite numbers, a non-integer order, orders on
    different grids) raises `InvalidInputError`; an unreadable path
    raises `OSError`.
    """
    with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
        # loadtxt warns on a file without rows; that is rejected below instead
        warnings.simplefilter("ignore", UserWarning)
        try:
            header, tag = handle.readline().strip(), handle.readline().strip()
            data = (
                np.loadtxt(handle, delimiter=",", ndmin=2)
                if header == _HTF_HEADER and tag.startswith(_CONVENTION_TAG)
                else None
            )
        except ValueError as exc:  # undecodable bytes, or a row that is not numbers
            raise InvalidInputError(f"{path}: {exc}") from exc
    if data is None:
        raise InvalidInputError(
            f"{path}: expected a '{_HTF_HEADER}' header and a "
            f"'{_CONVENTION_TAG}input' or '{_CONVENTION_TAG}output' line"
        )
    if data.size == 0:
        raise InvalidInputError(f"{path}: no rows after the header")
    if data.shape[1] != 4 or not np.all(np.isfinite(data)) or np.any(data[:, 1] % 1.0):
        raise InvalidInputError(
            f"{path}: expected rows of four finite numbers omega_rad_s,n,re,im "
            "with an integer order n"
        )
    rows = {}
    for n in np.unique(data[:, 1]):
        block = data[data[:, 1] == n]
        rows[int(n)] = block[np.argsort(block[:, 0])]
    grid = rows[min(rows)][:, 0]
    for block in rows.values():
        if not same_grid(block[:, 0], grid):
            raise InvalidInputError(f"{path}: harmonics sampled on different grids")
    return HarmonicTransferSet(
        omega_grid=grid,
        harmonics={n: block[:, 2:].copy().view(complex)[:, 0] for n, block in rows.items()},
        n_h_kept=max(map(abs, rows)),
        convention=tag[len(_CONVENTION_TAG) :],
    )
