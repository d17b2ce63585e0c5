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

The generator A_blk - N_blk does not depend on w, so `eval_htf`
diagonalizes it once per call, A_blk - N_blk = V diag(lam) V^-1, and
solves each grid point in the modal basis, M(w)^-1 = V diag(1/(j*w -
lam)) V^-1, at O(n^2) instead of O(n^3) per point.  The time-domain
system is real, so the coefficients of harmonics n and -n are complex
conjugates and conj(A_blk - N_blk) = P (A_blk - N_blk) P, with P
swapping n and -n (Wereley, Analysis and Control of Linear Periodically
Time Varying Systems, MIT PhD thesis, 1991).  In cosine and sine
coordinates, x_n + x_-n and j*(x_n - x_-n), the generator is therefore
a real matrix; `eval_htf` diagonalizes that real form and maps its
eigenvectors back, which needs no complex eigensolver.  One step of
fixed-precision iterative refinement against M(w) itself follows every
modal solve (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 12); it brings the result to working accuracy even where V is ill
conditioned or, for a defective generator, not a basis at all.  The
condition figure attached to a grid point is the upper bound
(|w| + |A-N|_1) |V|_1 |V^-1|_1 max|1/(j*w - lam)| on |M|_1 |M^-1|_1.
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
#: Vector entries per batch of grid points in `eval_htf`; bounds the
#: memory held by the per-point solution and residual vectors.
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

    Arrays are indexed ``[n + n_h]`` for harmonic n.  Coefficients are
    finite and obey conjugate symmetry (the time-domain matrices are
    real), which `_check_conjugate` validates on construction.
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
            if coeff.shape[0] != 2 * self.n_h + 1 or not np.all(np.isfinite(coeff)):
                raise InvalidInputError(f"{name} must hold 2*n_h+1 finite coefficients")
            _check_conjugate(coeff - coeff[::-1].conj(), coeff.reshape(-1, coeff.shape[2]), name)

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


def _harmonic_pairs(n_h: int, n_states: int):
    """State indices of harmonic 0, of harmonics 1..n_h and of -1..-n_h.

    The k-th entries of the last two arrays index the same state of
    harmonics n and -n, so slicing with them pairs each line with its
    mirror.
    """
    per = n_states // (2 * n_h + 1)
    state = np.arange(per)
    zero = n_h * per + state
    pos = (np.arange(n_h + 1, 2 * n_h + 1)[:, None] * per + state).ravel()
    neg = (np.arange(n_h - 1, -1, -1)[:, None] * per + state).ravel()
    return zero, pos, neg


def _real_form(gen: np.ndarray, n_h: int) -> np.ndarray:
    """The generator in cosine/sine coordinates, ``W gen W^-1``.

    W keeps harmonic 0 and maps each pair (x_n, x_-n) to the cosine row
    x_n + x_-n and the sine row j*(x_n - x_-n); W^-1 undoes it with
    factors of 0.5.  Both are row and column slicing with exact scalings,
    no matrix product.  For the HSS of a real system (conj(gen) = P gen P,
    P swapping n and -n) the result is real; its imaginary part measures
    how far `gen` is from that.  Rows and columns are ordered harmonic 0,
    cosines, sines.
    """
    zero, pos, neg = _harmonic_pairs(n_h, gen.shape[0])
    p, q = gen[pos], gen[neg]
    rows = np.concatenate([gen[zero], p + q, 1j * (p - q)])
    p, q = rows[:, pos], rows[:, neg]
    return np.concatenate([rows[:, zero], 0.5 * (p + q), -0.5j * (p - q)], axis=1)


def _real_eig(gen: np.ndarray, n_h: int):
    """Eigenvalues and unit eigenvectors of `gen`, from its real form.

    Raises `InvalidInputError` if the real form's imaginary part breaks
    `_check_conjugate`.
    """
    real = _real_form(gen, n_h)
    zero, pos, neg = _harmonic_pairs(n_h, gen.shape[0])
    _check_conjugate(real.imag, gen[:, zero], "not the HSS of a real system")
    lam, vectors = np.linalg.eig(real.real)
    # V = W^-1 vectors
    cos, sin = np.split(vectors[zero.size :], 2)
    V = np.empty(vectors.shape, dtype=complex)
    V[zero] = vectors[: zero.size]
    V[pos] = 0.5 * (cos - 1j * sin)
    V[neg] = 0.5 * (cos + 1j * sin)
    # unit columns, as a complex eig returns them: W^-1 shrinks each by a
    # factor between 1/sqrt(2) and 1, which would loosen the condition
    # bound; einsum sums the squares without n x n temporaries
    norm2 = np.einsum("ij,ij->j", V.real, V.real) + np.einsum("ij,ij->j", V.imag, V.imag)
    V /= np.sqrt(norm2)
    return lam, V


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two frequency grids hold the same points, to 1e-9 rad/s."""
    return a.shape == b.shape and not np.max(np.abs(a - b), initial=0.0) > 1e-9


def default_grid(f_hi: float = 7.0, n_points: int = 600) -> np.ndarray:
    """Uniform grid over (0, f_hi] Hz, returned in rad/s."""
    return 2.0 * math.pi * f_hi * np.arange(1, n_points + 1) / n_points


def eval_htf(
    hss: TruncatedHSS,
    omega_grid,
    n_keep: int | None = None,
    convention: str = "input",
    dA=(),
) -> HarmonicTransferSet:
    """Evaluate harmonic transfer functions on a frequency grid.

    Diagonalizes the generator ``A - N = V diag(lam) V^-1`` once, so that
    ``M^-1 = V diag(1/(j*w - lam)) V^-1`` for every ``M = j*w*I - (A - N)``
    costs O(n^2) per grid point.  The eigensolver runs in real arithmetic
    on the generator's cosine/sine form ``W (A - N) W^-1``, and V is that
    form's eigenvectors mapped back by ``W^-1`` with unit columns.  So
    `hss` must be the HSS of a real system, as every `build_hss` output
    is: a generator that breaks `_check_conjugate` raises
    `InvalidInputError`.  Each modal solve is followed by one step of
    iterative refinement against ``M`` itself, which recovers full
    working accuracy when the eigenvectors are ill conditioned.  Only
    the kept harmonic gains of ``C M^-1 B + D`` are formed: the central block
    column for the "input" convention, the central block row for the
    "output" convention.  A grid point within rounding of an eigenvalue
    (``min|j*w - lam| <= n*eps*max(|A-N|_1, 1)``) is nudged by one part
    in 1e9 (with a warning); a point whose condition bound
    ``(|w| + |A-N|_1) |V|_1 |V^-1|_1 max|1/(j*w - lam)|``, an upper bound
    on ``|M|_1 |M^-1|_1``, exceeds 1e12 also gets a warning attached.

    For each operator ``dA_i`` in `dA` the same factors also give the
    sensitivities ``C M^-1 dA_i M^-1 B`` of the kept gains: their
    derivative with respect to a parameter theta_i on which the stacked
    state operator depends as ``dA/dtheta_i = dA_i`` (B, C, D and the
    pump held fixed).  They go to `sensitivities`, one dict per operator
    keyed like `harmonics`; with no operators nothing extra is computed.

    Parameters
    ----------
    hss : TruncatedHSS
    omega_grid : array of rad/s frequencies
    n_keep : int or None
        Harmonic orders to keep, |n| <= n_keep (default: all of them).
    convention : "input" or "output"
    dA : sequence of (n_states, n_states) arrays
        State-operator directions to differentiate along (default none).
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
    dA = [np.asarray(d) for d in dA]
    if any(d.shape != hss.A.shape for d in dA):
        raise InvalidInputError("each dA must have the shape of the state operator")

    n_h = hss.n_h
    gen = hss.A - hss.N
    gen_norm = np.linalg.norm(gen, 1)
    try:
        lam, V = _real_eig(gen, n_h)
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SingularFrequencyError(
            f"harmonic state operator has no usable eigenbasis ({exc})"
        ) from None
    cond_V = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1)
    tiny = hss.n_states * np.finfo(float).eps * max(gen_norm, 1.0)

    keep = np.arange(-n_keep, n_keep + 1)
    if convention == "output":
        # gain onto output line 0 from input line -n: row n_h, column n_h - n;
        # row problems y M = b, solved as y = ((b V) r) V^-1
        into, back, right = V, Vinv, gen
        first, out = hss.C[n_h], hss.B[:, n_h - keep]
        feed = hss.D[n_h, n_h - keep]
    else:
        # gain from input line 0 onto output line n: row n_h + n, column n_h;
        # column problems M x = b, the transposes of the row problems
        into, back, right = Vinv.T, V.T, gen.T
        first, out = hss.B[:, n_h], hss.C[n_h + keep].T
        feed = hss.D[n_h + keep, n_h]
    dA_right = [np.asarray(d if convention == "output" else d.T, dtype=complex) for d in dA]

    def solve(rhs, jw, r):
        """Rows x with x M' = rhs (M' = M or its transpose), refined once."""
        x = (r * (rhs @ into)) @ back
        x += (r * ((rhs - jw * x + x @ right) @ into)) @ back
        return x

    # Every product below is a stack of one-row products, one per grid
    # point, so a point's result does not depend on the batch it is in.
    solved = omega_grid.copy()
    gains = np.empty((keep.size, omega_grid.size), dtype=complex)
    sens = np.empty((len(dA), keep.size, omega_grid.size), dtype=complex)
    cond = np.empty(omega_grid.size)
    step = max(1, _BATCH_ENTRIES // hss.n_states)
    for start in range(0, omega_grid.size, step):
        w = solved[start : start + step]
        gap = np.abs(1j * w[:, None] - lam).min(axis=1)
        singular = gap <= tiny
        if singular.any():
            w[singular] = np.where(
                w[singular] != 0.0, w[singular] * (1.0 + SINGULAR_NUDGE), SINGULAR_NUDGE
            )
            gap = np.abs(1j * w[:, None] - lam).min(axis=1)
            if np.any(gap <= tiny):
                bad = omega_grid[start : start + step][gap <= tiny]
                raise SingularFrequencyError(
                    f"harmonic balance system singular at omega={bad[0]:.9g}"
                )
        cond[start : start + step] = (np.abs(w) + gen_norm) * cond_V / gap
        jw = 1j * w[:, None, None]
        r = 1.0 / (jw - lam)
        x = solve(first, jw, r)
        gains[:, start : start + step] = ((x @ out)[:, 0] + feed).T
        for i, d in enumerate(dA_right):
            sens[i, :, start : start + step] = (solve(x @ d, jw, r) @ out)[:, 0].T

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
