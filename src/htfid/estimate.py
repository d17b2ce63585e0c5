"""Empirical harmonic transfer functions from chirp records.

An LTP system folds input energy across harmonic lines: the output DFT
bin at w collects contributions G_n(j*w) * U(j*(w - n*w_p)) for every
harmonic order n (output-frequency convention).  With records whose
duration is an exact multiple of the pump period, the shift by n*w_p is
an exact bin shift and each output bin yields one linear equation per
record in the unknowns G_{-N}..G_{N} at that bin.

Records start at staggered clock phases phi_r.  In record-local time the
system's Fourier coefficients carry an extra factor exp(j*n*w_p*phi_r),
which is absorbed into the corresponding regressor column so that all
records share one set of clock-referenced unknowns; the even spread of
the phases is what makes those columns well conditioned.

Bins are coupled across frequency by a second-difference curvature
penalty (applied per harmonic), giving the regularized normal equations

    (P^H P + alpha * D2^T D2) g = P^H y

solved by block elimination as one system over all retained bins and
harmonics.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidInputError,
    NoDataError,
)
from .excite import ExperimentRecord
from .hss import HarmonicTransferSet, same_grid

#: Fraction of the band-median excitation below which an output bin is
#: dropped from the estimation grid.
MIN_EXCITATION = 1e-3
#: Default curvature penalty weight.
DEFAULT_ALPHA = 1e-8
#: Normal-matrix condition estimate that triggers a hard error.
COND_LIMIT = 1e14


@dataclass(frozen=True)
class SpectrumRecord:
    """Full-record DFT of one experiment record.

    `U` and `Y` are the input and deviation-output DFTs normalized by
    the sample count, on the signed FFT bin grid `freq_grid` (rad/s).
    No windowing is applied; records are transient-free by construction
    because they start exactly on the orbit.
    """

    freq_grid: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    clock_phase: float

    @property
    def n_bins(self) -> int:
        return self.freq_grid.shape[0]

    @property
    def bin_spacing(self) -> float:
        return float(self.freq_grid[1] - self.freq_grid[0])

    @property
    def duration(self) -> float:
        return 2.0 * math.pi / self.bin_spacing


def spectra(record: ExperimentRecord) -> SpectrumRecord:
    """DFT of one record's input and deviation output.

    The transform runs over the full record with no window and is
    normalized by the sample count, so a pure cosine of amplitude a
    shows up as a/2 in its (+/-) bins.
    """
    u = np.asarray(record.u, dtype=float)
    y = np.asarray(record.xi1, dtype=float)
    if u.shape != y.shape or u.ndim != 1 or u.size < 2:
        raise InvalidInputError("record input/output must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise InvalidInputError("record contains non-finite samples")
    n = u.shape[0]
    freq = 2.0 * math.pi * np.fft.fftfreq(n, d=record.dt)
    return SpectrumRecord(
        freq_grid=freq,
        U=np.fft.fft(u) / n,
        Y=np.fft.fft(y) / n,
        clock_phase=record.clock_phase,
    )


def check_design(n_records: int, n_harmonics: int, periods: float) -> None:
    """Refuse a record design that cannot identify G_-N .. G_N.

    That takes at least 2N+1 records, each spanning a whole number of
    pump periods (to 1e-6 of a period) so that every harmonic shift lands
    on a DFT bin.  `periods` is the record duration over the pump period.
    """
    orders = 2 * n_harmonics + 1
    if n_records < orders:
        raise InvalidInputError(f"{n_records} records cannot identify {orders} harmonic orders")
    if abs(periods - round(periods)) > 1e-6:
        raise InvalidInputError(f"a record spans {periods:.9g} pump periods, not a whole number")


@dataclass(frozen=True)
class EstimationProblem:
    """Spectra plus estimation settings.

    `band_hz` is the excited band (lo, hi]; shifted regressor bins whose
    absolute frequency falls outside it carry no input energy and are
    zeroed.  The records must pass `check_design`.
    """

    records: list
    n_harmonics: int
    pump: float
    alpha: float = DEFAULT_ALPHA
    band_hz: tuple = (0.0, 7.0)
    min_excitation: float = MIN_EXCITATION

    def __post_init__(self):
        if self.n_harmonics < 0:
            raise InvalidInputError("n_harmonics must be non-negative")
        if self.pump <= 0.0:
            raise InvalidInputError("pump frequency must be positive")
        if self.alpha < 0.0:
            raise InvalidInputError("alpha must be non-negative")
        ref = self.records[0]
        for rec in self.records[1:]:
            if rec.n_bins != ref.n_bins or abs(rec.bin_spacing - ref.bin_spacing) > 1e-12:
                raise InvalidInputError("records disagree on the frequency grid")
        check_design(len(self.records), self.n_harmonics, self.pump / ref.bin_spacing)
        nyquist = math.pi / (ref.duration / ref.n_bins)
        top = 2.0 * math.pi * self.band_hz[1] + self.n_harmonics * self.pump
        if top >= nyquist:
            raise InvalidInputError(
                f"band top plus harmonic shifts ({top:.1f} rad/s) reaches the "
                f"Nyquist frequency ({nyquist:.1f} rad/s)"
            )

    @property
    def pump_bins(self) -> int:
        return int(round(self.pump / self.records[0].bin_spacing))


def _in_band(problem: EstimationProblem, q) -> np.ndarray:
    """Whether the signed bins q lie in the band (lo, hi]: bin 0 never,
    others when |frequency| is above lo and at most half a bin above hi."""
    spacing = problem.records[0].bin_spacing
    nu = np.abs(q) * spacing
    lo, hi = (2.0 * math.pi * f for f in problem.band_hz)
    return (q != 0) & (lo < nu) & (nu <= hi + 0.5 * spacing)


def _regressor_tensor(problem: EstimationProblem, q):
    """The `build_regressor` systems of all signed output bins q at once.

    Also returns the excitation mask: whether the shifted frequency of
    each column lies in the band.  Returns (Phi, y, mask) with shapes
    (bins, records, 2N+1), (bins, records) and (bins, 2N+1).
    """
    n_fft = problem.records[0].n_bins
    orders = range(-problem.n_harmonics, problem.n_harmonics + 1)
    q = np.asarray(q, dtype=int)
    q_shift = q[:, None] - np.array(orders) * problem.pump_bins
    mask = _in_band(problem, q_shift)

    mod = np.array(
        [
            [cmath.exp(1j * n * problem.pump * rec.clock_phase) for n in orders]
            for rec in problem.records
        ]
    )
    U = np.stack([rec.U[q_shift % n_fft] for rec in problem.records], axis=1)
    # Real and imaginary parts are formed as in scalar complex arithmetic;
    # the array product may fuse multiply-adds and round differently.
    Phi = np.zeros(U.shape, dtype=complex)
    live = mask[:, None, :]
    Phi.real = np.where(live, mod.real * U.real - mod.imag * U.imag, 0.0)
    Phi.imag = np.where(live, mod.real * U.imag + mod.imag * U.real, 0.0)
    y = np.stack([rec.Y[q % n_fft] for rec in problem.records], axis=1)
    return Phi, y, mask


def build_regressor(problem: EstimationProblem, omega: float):
    """Regressor matrix and output vector for one frequency.

    Row r reads ``Y_r(j*w) = sum_n G_n(j*w) * exp(j*n*w_p*phi_r) *
    U_r(j*(w - n*w_p))``: one column per harmonic order (ascending n),
    with the clock-phase modulation of record r folded into its row.
    Columns whose shifted frequency falls outside the excited band are
    zeroed.  Negative shifted frequencies wrap to the conjugate bins of
    the DFT.  `omega` snaps to the nearest bin.

    Returns (Phi, y) with shapes (n_records, 2*N+1) and (n_records,).
    Raises `InvalidInputError` unless omega is finite and its nearest bin
    is one of the records' signed bins, up to n_bins // 2.
    """
    spacing = problem.records[0].bin_spacing
    top = problem.records[0].n_bins // 2
    ratio = omega / spacing
    if not abs(ratio) < top + 0.5:
        raise InvalidInputError(
            f"omega={omega} rad/s lies outside the records' bins (|omega| < "
            f"{(top + 0.5) * spacing:.6g} rad/s)"
        )
    Phi, y, _ = _regressor_tensor(problem, [int(round(ratio))])
    return Phi[0], y[0]


def second_difference(n_points: int) -> np.ndarray:
    """Second-difference operator with rows [1, -2, 1].

    Maps a length-n vector to its n-2 interior curvatures; exact zero on
    constant and linear sequences.
    """
    if n_points < 3:
        raise InvalidInputError("second difference needs at least 3 points")
    return np.diff(np.eye(n_points), n=2, axis=0)


def _curvature_gram(n_points: int) -> np.ndarray:
    """``D2^T D2`` for ``D2 = second_difference(n_points)``, in O(n) adds.

    Each interior point adds the outer product of the [1, -2, 1] stencil
    along nine shifted diagonals.  The entries are small integers, so the
    result equals the dense product bit for bit.
    """
    stencil = (1.0, -2.0, 1.0)
    gram = np.zeros((n_points, n_points))
    rows = np.arange(n_points - 2)
    for a, s_a in enumerate(stencil):
        for b, s_b in enumerate(stencil):
            gram[rows + a, rows + b] += s_a * s_b
    return gram


def median(values, axis=-1):
    """`np.median` along `axis`, bit for bit, without its import of numpy.ma.

    The middle of the sorted values, or the mean of the two middle ones
    for an even count; nan where any value is nan (sorting puts nans last).
    """
    ordered = np.moveaxis(np.sort(values, axis=axis), axis, -1)
    half = ordered.shape[-1] // 2
    middle = ordered[..., half]
    if ordered.shape[-1] % 2 == 0:
        middle = (ordered[..., half - 1] + middle) / 2.0
    return np.where(np.isnan(ordered[..., -1]), np.nan, middle)


def _candidate_bins(problem: EstimationProblem):
    """Excited output bins: band membership plus excitation screening."""
    bins = np.arange(1, problem.records[0].n_bins // 2)
    bins = bins[_in_band(problem, bins)]
    if bins.size == 0:
        raise NoDataError("excited band contains no FFT bins")
    mag = median(np.abs(np.stack([rec.U[bins] for rec in problem.records])), axis=0)
    # Strict comparison so an all-zero spectrum (null experiment) is
    # reported as having no data rather than passing a zero floor.
    floor = problem.min_excitation * float(median(mag))
    keep = mag > floor
    if not np.any(keep):
        raise NoDataError("no bins exceed the excitation floor")
    return bins[keep]


def _coupled(problem: EstimationProblem, n_bins: int) -> bool:
    """Whether the curvature penalty couples the bins (it needs 3 of them)."""
    return problem.alpha > 0.0 and n_bins >= 3


def _misfit(problem: EstimationProblem, Phi, y, G):
    """Data residual and curvature penalty of the per-bin harmonics G.

    G has shape (bins, 2N+1), one column per harmonic order; returns
    (sum |y - Phi g|^2, alpha * sum |D2 G|^2).
    """
    residual = y - (Phi @ G[:, :, None])[:, :, 0]
    data_residual = float(np.sum(np.abs(residual) ** 2))
    penalty = 0.0
    if _coupled(problem, G.shape[0]):
        # The slices round as the [1, -2, 1] stencil applied term by term.
        curvature = G[:-2] - 2.0 * G[1:-1] + G[2:]
        penalty = problem.alpha * float(np.sum(np.abs(curvature) ** 2))
    return data_residual, penalty


def _solve_coupled(problem, blocks, rhs):
    """Solve the penalty-coupled normal equations; returns (g, cond).

    The penalty reaches two bins, so over pairs of bins the matrix is
    Hermitian block tridiagonal, with real penalty-only blocks U_j above
    and U_j^T below the diagonal.  Block elimination inverts each pair's
    Schur complement (Golub & Van Loan, Matrix Computations, 4.5).  An
    odd bin count gets a decoupled unit bin, which solves to zero and
    which no norm or probe sees.  `cond` is ||A||_1 times a deterministic
    Hager estimate of ||A^-1||_1 (Higham, ACM TOMS 14, 1988).

    Where the penalty dominates few bins, the explicit inverses lose
    accuracy, so the solution takes one step of mixed-precision iterative
    refinement (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 12): the residual of the same float64 matrix, blocks and the five
    diagonals of the penalty, is formed in long double and solved once
    more.
    """
    n_bins, width, _ = blocks.shape
    pairs, n, eye = (n_bins + 1) // 2, n_bins * width, np.eye(width)
    penalty = problem.alpha * _curvature_gram(n_bins)
    coupling = np.pad(penalty, (0, 2 * pairs - n_bins))
    coupling, step = coupling.reshape(pairs, 2, pairs, 2), np.arange(pairs)
    upper = np.kron(coupling[step[:-1], :, step[1:]], eye)
    diag = np.kron(coupling[step, :, step], eye).astype(complex)
    diag[:, :width, :width] += blocks[0::2]
    diag[:, width:, width:] += np.concatenate([blocks[1::2], eye[None]])[:pairs]

    inverses = np.empty_like(diag)
    for j in range(pairs):
        schur = diag[j] - upper[j - 1].T @ (inverses[j - 1] @ upper[j - 1]) if j else diag[j]
        try:
            inverses[j] = np.linalg.inv(schur)
        except np.linalg.LinAlgError:
            raise IllConditionedError(
                "normal matrix is singular (some harmonic carries no excitation "
                "anywhere in the band); a larger alpha cannot help, widen the "
                "band or reduce n_harmonics"
            ) from None

    def solve(b):
        z = np.zeros((pairs, 2 * width), dtype=complex)
        z.flat[:n] = b
        for j in range(1, pairs):
            z[j] -= upper[j - 1].T @ (inverses[j - 1] @ z[j - 1])
        z[-1] = inverses[-1] @ z[-1]
        for j in range(pairs - 2, -1, -1):
            z[j] = inverses[j] @ (z[j] - upper[j] @ z[j + 1])
        return z.ravel()[:n]

    colsum = np.abs(diag).sum(axis=1)
    colsum[1:] += np.abs(upper).sum(axis=1)
    colsum[:-1] += np.abs(upper).sum(axis=2)
    x = solve(np.full(n, 1.0 / n))
    # The sign vector is x/|x|, with 1 at zeros; A^-H = A^-1 since A is Hermitian.
    z = np.abs(solve(np.exp(1j * np.angle(x))))
    inv_norm = max(np.abs(x).sum(), np.abs(solve(np.eye(1, n, int(np.argmax(z)))[0])).sum())
    cond = float(colsum.ravel()[:n].max() * inv_norm)
    if not cond <= COND_LIMIT:  # a nan estimate fails too
        raise IllConditionedError(
            f"normal matrix condition estimate {cond:.3e} is not below {COND_LIMIT:.1e}; "
            "increase alpha"
        )
    g = solve(rhs)
    wide = g.reshape(n_bins, width).astype(np.clongdouble)
    applied = (blocks.astype(np.clongdouble) @ wide[:, :, None])[:, :, 0]
    for lag in range(-2, 3):
        band = penalty.diagonal(lag).astype(np.longdouble)[:, None]
        if lag >= 0:
            applied[: n_bins - lag] += band * wide[lag:]
        else:
            applied[-lag:] += band * wide[: n_bins + lag]
    residual = rhs.astype(np.clongdouble) - applied.ravel()
    return g + solve(residual.astype(complex)), cond


def estimate_htf(problem: EstimationProblem) -> HarmonicTransferSet:
    """Regularized least-squares estimate of G_{-N}..G_{N}.

    Assembles the per-bin regressors of all records and the per-harmonic
    curvature penalty into one block-tridiagonal Hermitian system and
    solves the normal equations by block elimination.  With alpha = 0 (or
    fewer than 3 bins, where the second-difference penalty is undefined)
    nothing couples neighboring bins, and each bin is solved independently
    by minimum-norm least squares: columns without excitation get an exact
    zero instead of making the joint system singular.  Returns the
    estimate in the output-frequency convention, with a per-harmonic mask
    of bins whose regressor column actually carried excitation (values on
    masked-out bins are purely penalty interpolation, or zero in the
    uncoupled case) and solver diagnostics attached.

    Raises
    ------
    NoDataError
        If excitation screening leaves no usable bins.
    IllConditionedError
        If the penalized normal matrix is singular (a whole harmonic
        without excitation) or its 1-norm condition estimate exceeds
        1e14 or is not finite; a larger alpha regularizes it.
    """
    bins = _candidate_bins(problem)
    omegas = bins * problem.records[0].bin_spacing
    n_bins = bins.shape[0]
    N = problem.n_harmonics
    width = 2 * N + 1

    Phi, y, mask = _regressor_tensor(problem, bins)
    if _coupled(problem, n_bins):
        Phi_H = Phi.conj().transpose(0, 2, 1)
        rhs = (Phi_H @ y[:, :, None]).ravel()
        g, cond = _solve_coupled(problem, Phi_H @ Phi, rhs)
        G = g.reshape(n_bins, width)
    else:
        G = np.empty((n_bins, width), dtype=complex)
        cond = 0.0
        for i in range(n_bins):
            G[i], _, _, svals = np.linalg.lstsq(Phi[i], y[i], rcond=None)
            nz = svals[svals > 0.0]
            if nz.size:
                cond = max(cond, float(nz[0] / nz[-1]))
    orders = range(-N, N + 1)
    harmonics = {n: G[:, col].copy() for col, n in enumerate(orders)}
    masks = {n: mask[:, col].copy() for col, n in enumerate(orders)}
    data_residual, penalty_value = _misfit(problem, Phi, y, G)

    diagnostics = {
        "alpha": problem.alpha,
        "n_records": len(problem.records),
        "n_bins": int(n_bins),
        "n_harmonics": N,
        "cond_estimate": float(cond),
        "data_residual": data_residual,
        "penalty": penalty_value,
        "cost": data_residual + penalty_value,
        "low_excitation_columns": int(np.sum(~mask)),
    }
    return HarmonicTransferSet(
        omega_grid=omegas,
        harmonics=harmonics,
        n_h_kept=N,
        convention="output",
        excitation_mask=masks,
        diagnostics=diagnostics,
    )


def cost(problem: EstimationProblem, hts: HarmonicTransferSet) -> float:
    """Value of the regularized objective for a given harmonic set.

    The set must live on the problem's own retained bin grid (same bins
    as `estimate_htf` returns) and provide all orders |n| <= N.  Useful
    for optimality checks: no admissible set can beat the estimate.
    """
    bins = _candidate_bins(problem)
    omegas = bins * problem.records[0].bin_spacing
    if not same_grid(hts.omega_grid, omegas):
        raise InvalidInputError("harmonic set is not on the problem's bin grid")
    N = problem.n_harmonics
    Phi, y, _ = _regressor_tensor(problem, bins)
    G = np.column_stack([hts.harmonics[n] for n in range(-N, N + 1)])
    data_residual, penalty_value = _misfit(problem, Phi, y, G)
    return data_residual + penalty_value
