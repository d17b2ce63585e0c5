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
records share one set of clock-referenced unknowns.  The R >= 2N+1
records play one input and start T/R apart, so the sum over r of
exp(j*(n' - n)*w_p*phi_r) is 0 for any two estimated orders: their
columns are orthogonal, and each bin's Gram P^H P is diagonal,
a_n = sum_r |P_rn|^2 on order n.  Bins are coupled across frequency by
a second-difference curvature penalty within each order, so the
regularized normal equations

    (P^H P + alpha * D2^T D2) g = P^H y

fall apart into one real symmetric pentadiagonal system per order,
(diag(a_n) + alpha * D2^T D2) g_n = b_n with b_n = sum_r conj(P_rn) y_r.
`EstimationProblem` refuses records of any other design.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidInputError,
    NoDataError,
    check_integer,
    check_real,
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
    """One-sided full-record DFT of one experiment record.

    `U` and `Y` are the input and deviation-output DFTs normalized by the
    sample count `n_bins`, the DFT length.  The records are real, so their
    DFTs are Hermitian: only bins 0 .. n_bins // 2 are stored, at the
    frequencies `freq_grid` (rad/s), and a negative bin -q holds the
    conjugate of bin q.  No windowing is applied; records are
    transient-free by construction because they start exactly on the
    orbit.  `spectra` shares one read-only `freq_grid` and `U` among the
    records of a batch that play the same input.
    """

    freq_grid: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    clock_phase: float
    n_bins: int

    def __post_init__(self):
        check_real("clock_phase", self.clock_phase)
        stored = (self.n_bins // 2 + 1,)
        if self.n_bins < 2 or not self.freq_grid.shape == self.U.shape == self.Y.shape == stored:
            raise InvalidInputError(
                f"a spectrum of {self.n_bins} bins stores bins 0..{self.n_bins // 2}, not "
                f"arrays of shapes {self.freq_grid.shape}, {self.U.shape}, {self.Y.shape}"
            )

    @property
    def bin_spacing(self) -> float:
        return float(self.freq_grid[1] - self.freq_grid[0])

    @property
    def duration(self) -> float:
        return 2.0 * math.pi / self.bin_spacing


def _at_bins(spectrum: np.ndarray, q, n_bins: int) -> np.ndarray:
    """Values of an `n_bins`-point DFT at the signed bins q, from its bins 0 .. n_bins // 2.

    Bins wrap modulo n_bins; a bin that wraps past n_bins // 2 is a
    negative one and takes the conjugate of its mirror bin, as the DFT of
    a real record is Hermitian.
    """
    k = np.asarray(q) % n_bins
    negative = k > n_bins // 2
    values = spectrum[np.where(negative, n_bins - k, k)]
    np.conjugate(values, out=values, where=negative)
    return values


def _one_sided(samples: np.ndarray) -> np.ndarray:
    # Bins 0 .. n // 2 of the DFT of n real samples, normalized by n.
    spectrum = np.fft.rfft(samples)
    spectrum /= samples.shape[0]
    return spectrum


def spectra(records: list[ExperimentRecord]) -> list[SpectrumRecord]:
    """One-sided DFTs of the inputs and deviation outputs of a batch of records.

    Each transform runs over the full record with no window and is
    normalized by the sample count, so a pure cosine of amplitude a
    shows up as a/2 in its bin (and, conjugated, in the negative one that
    is not stored).  Returns one `SpectrumRecord` per record, in order; a
    single record is a batch of one.

    Records that play the same input (equal samples, same step) share
    one `U` array and one `freq_grid`, so a batch that replays one chirp
    transforms it once; the shared arrays are read-only.  Each record
    gets its own `Y`.  The spectra keep no reference to the records.
    """
    inputs = []  # (u, dt, freq_grid, U) of each distinct input so far
    batch = []
    for record in records:
        u = np.asarray(record.u, dtype=float)
        y = np.asarray(record.xi1, dtype=float)
        dt = record.dt
        if u.shape != y.shape or u.ndim != 1 or u.size < 2:
            raise InvalidInputError("record input/output must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise InvalidInputError("record contains non-finite samples")
        check_real("record step dt", dt, 0.0, strict=True)
        n = u.shape[0]
        for seen, seen_dt, grid, U in inputs:
            if seen_dt == dt and np.array_equal(seen, u):
                break
        else:
            grid = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
            U = _one_sided(u)
            grid.flags.writeable = U.flags.writeable = False
            inputs.append((u, dt, grid, U))
        batch.append(
            SpectrumRecord(
                freq_grid=grid, U=U, Y=_one_sided(y), clock_phase=record.clock_phase, n_bins=n
            )
        )
    return batch


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


def check_band(band_hz) -> None:
    """Refuse an excited band (lo, hi] in Hz unless it is finite with 0 <= lo < hi."""
    try:
        lo, hi = band_hz
    except (TypeError, ValueError):
        raise InvalidInputError(f"estimation band must be two numbers, not {band_hz!r}") from None
    check_real("band lo", lo, 0.0)
    check_real("band hi", hi)
    if not lo < hi:
        raise InvalidInputError(f"estimation band (lo, hi] in Hz needs lo < hi, not {band_hz!r}")


def check_nyquist(band_hz, n_harmonics: int, pump: float, dt: float) -> None:
    """Refuse a band (lo, hi] in Hz whose top, shifted by `n_harmonics`
    pump harmonics (`pump` in rad/s), reaches the Nyquist frequency of
    records sampled every `dt` seconds."""
    nyquist = math.pi / dt
    top = 2.0 * math.pi * band_hz[1] + n_harmonics * pump
    if top >= nyquist:
        raise InvalidInputError(
            f"band top plus harmonic shifts ({top:.1f} rad/s) reaches the "
            f"Nyquist frequency ({nyquist:.1f} rad/s)"
        )


@dataclass(frozen=True)
class EstimationProblem:
    """Spectra plus estimation settings.

    `band_hz` is the excited band (lo, hi]; shifted regressor bins whose
    absolute frequency falls outside it carry no input energy and are
    zeroed; it must pass `check_band` and, with the harmonic shifts,
    `check_nyquist`, and the records `check_design`.
    `n_harmonics` is a non-negative integer, `pump` finite and positive,
    `alpha` and `min_excitation` finite and non-negative.  The R records
    share one frequency grid and one input spectrum `U` and start T/R
    apart (T the pump period), so the orders' regressor columns are
    orthogonal (see the module docstring).
    """

    records: list
    n_harmonics: int
    pump: float
    alpha: float = DEFAULT_ALPHA
    band_hz: tuple = (0.0, 7.0)
    min_excitation: float = MIN_EXCITATION

    def __post_init__(self):
        check_integer("n_harmonics", self.n_harmonics, 0)
        check_real("pump", self.pump, 0.0, strict=True)
        check_real("alpha", self.alpha, 0.0)
        check_real("min_excitation", self.min_excitation, 0.0)
        check_band(self.band_hz)
        if not self.records:
            raise InvalidInputError("no records were given")
        ref = self.records[0]
        for rec in self.records[1:]:
            if rec.n_bins != ref.n_bins or abs(rec.bin_spacing - ref.bin_spacing) > 1e-12:
                raise InvalidInputError("records disagree on the frequency grid")
            if rec.U is not ref.U and not np.array_equal(rec.U, ref.U):
                raise InvalidInputError("records do not share one input spectrum")
        check_design(len(self.records), self.n_harmonics, self.pump / ref.bin_spacing)
        # one record in each of the R slots T/R apart, to 1e-9 of a period
        n, period = len(self.records), 2.0 * math.pi / self.pump
        phases = np.array([rec.clock_phase for rec in self.records]) % period
        slots = (phases - phases[0]) / period * n
        nearest = np.round(slots)
        if not np.all(np.abs(slots - nearest) <= 1e-9 * n) or len(set(nearest % n)) < n:
            raise InvalidInputError(f"the {n} records' start phases do not lie T/{n} apart")
        check_nyquist(self.band_hz, self.n_harmonics, self.pump, ref.duration / ref.n_bins)

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


def _phase_factors(problem: EstimationProblem) -> np.ndarray:
    """exp(j*n*w_p*phi_r) of record r (rows) and order n = -N..N (columns)."""
    orders = range(-problem.n_harmonics, problem.n_harmonics + 1)
    phases = [rec.clock_phase for rec in problem.records]
    return np.array([[cmath.exp(1j * n * problem.pump * phi) for n in orders] for phi in phases])


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

    mod = _phase_factors(problem)
    U = np.stack([_at_bins(rec.U, q_shift, n_fft) for rec in problem.records], axis=1)
    # Real and imaginary parts are formed as in scalar complex arithmetic;
    # the array product may fuse multiply-adds and round differently.
    Phi = np.zeros(U.shape, dtype=complex)
    live = mask[:, None, :]
    Phi.real = np.where(live, mod.real * U.real - mod.imag * U.imag, 0.0)
    Phi.imag = np.where(live, mod.real * U.imag + mod.imag * U.real, 0.0)
    y = np.stack([_at_bins(rec.Y, q, n_fft) for rec in problem.records], axis=1)
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
    check_integer("n_points", n_points, 3)
    return np.diff(np.eye(n_points), n=2, axis=0)


def _curvature_bands(n_points: int) -> np.ndarray:
    """The diagonals of ``D2^T D2`` for ``D2 = second_difference(n_points)``.

    The matrix is symmetric and pentadiagonal, so three diagonals hold all
    of it.  Row `lag` of the result is diagonal `lag` from entry (0, lag)
    on, zero-padded to n_points entries: (1, 5, 6, ..., 6, 5, 1),
    (-2, -4, ..., -4, -2) and all ones.  Each interior point adds the
    products of the [1, -2, 1] stencil that fall on each diagonal, in O(n)
    adds; the entries are small integers, so they equal the dense
    product's diagonals bit for bit.
    """
    stencil = (1.0, -2.0, 1.0)
    bands = np.zeros((3, n_points))
    rows = n_points - 2
    for lag in range(3):
        for a in range(3 - lag):
            bands[lag, a : a + rows] += stencil[a] * stencil[a + lag]
    return bands


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
    n_fft = problem.records[0].n_bins
    U = np.stack([_at_bins(rec.U, bins, n_fft) for rec in problem.records])
    mag = median(np.abs(U), axis=0)
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
    (sum |y - Phi g|^2, alpha * sum |D2 G|^2, y - Phi g), the last of
    shape (bins, records).
    """
    residual = y - (Phi @ G[:, :, None])[:, :, 0]
    data_residual = float(np.sum(np.abs(residual) ** 2))
    penalty = 0.0
    if _coupled(problem, G.shape[0]):
        # The slices round as the [1, -2, 1] stencil applied term by term.
        curvature = G[:-2] - 2.0 * G[1:-1] + G[2:]
        penalty = problem.alpha * float(np.sum(np.abs(curvature) ** 2))
    return data_residual, penalty, residual


def _solve_orders(problem, a, b):
    """Solve ``(diag(a_n) + alpha * D2^T D2) g_n = b_n`` for each order n (column).

    `a` holds the orders' Gram diagonals (real, non-negative) over the
    bins and `b` the right-hand sides; returns (g, cond), `cond` each
    order's 1-norm condition.  Without the penalty (`_coupled`) g is b/a,
    0 where a = 0 (the minimum-norm answer), and cond is max(a) / min(a)
    over the excited bins, 0 with none.  With it, each matrix is symmetric
    pentadiagonal: singular when fewer than two bins are excited (the
    penalty leaves linear runs free), positive definite otherwise.  One
    pass over the bins factors all orders as LDL^T (Golub & Van Loan,
    Matrix Computations, 4.3).  `cond` is ||A||_1 times a deterministic
    Hager estimate of ||A^-1||_1 on the same factors (Higham, ACM TOMS 14,
    1988), and one step of refinement with the residual in long double
    follows (Higham, Accuracy and Stability of Numerical Algorithms, 12).
    """
    n_bins, width = a.shape
    if not _coupled(problem, n_bins):
        g = np.divide(b, a, out=np.zeros_like(b), where=a > 0.0)
        return g, a.max(axis=0) / np.where(a > 0.0, a, np.inf).min(axis=0)
    if np.count_nonzero(a > 0.0, axis=0).min() < 2:
        raise IllConditionedError(
            "normal matrix is singular (some harmonic carries excitation at fewer than two "
            "bins of the band); a larger alpha cannot help, widen the band or reduce n_harmonics"
        )
    bands = problem.alpha * _curvature_bands(n_bins)
    # Row i + 2 belongs to bin i: rows of zeros stand for the entries off the band.
    d0, d1, d2 = np.pad(bands, ((0, 0), (2, 0)))
    diag = np.pad(a, ((2, 0), (0, 0))) + d0[:, None]
    # pivots D, off = A[i+1, i] after elimination, l1 = L[i+1, i], l2 = L[i+2, i]
    D, off, l1, l2 = np.zeros((4, n_bins + 2, width))
    for p in range(2, n_bins + 2):
        off[p] = d1[p] - d2[p - 1] * l1[p - 1]
        D[p] = diag[p] - off[p - 1] * l1[p - 1] - d2[p - 2] * l2[p - 2]
        l1[p] = off[p] / D[p]
        l2[p] = d2[p] / D[p]
    pivots, l1, l2 = D[2:, :, None], l1[:, :, None], l2[:, :, None]

    def solve(*columns):
        z = np.zeros((n_bins + 4, width, len(columns)))
        z[2:-2] = np.stack(columns, axis=-1)
        for p in range(2, n_bins + 2):
            z[p] -= l1[p - 1] * z[p - 1] + l2[p - 2] * z[p - 2]
        z[2:-2] /= pivots
        for p in range(n_bins + 1, 1, -1):
            z[p] -= l1[p] * z[p + 1] + l2[p] * z[p + 2]
        return z[2:-2]

    first = solve(b.real, b.imag, np.full(a.shape, 1.0 / n_bins))
    g, x = first[..., 0] + 1j * first[..., 1], first[..., 2]
    # The sign vector is sign(x), with 1 at zeros; A^-T = A^-1 since A is symmetric.
    z = np.abs(solve(np.where(x < 0.0, -1.0, 1.0))[..., 0])
    probe = np.zeros(a.shape)
    probe[z.argmax(axis=0), np.arange(width)] = 1.0
    # one refinement step, with the residual of the float64 a and bands in long double
    wide = g.astype(np.clongdouble)
    applied = a.astype(np.longdouble) * wide
    for lag in range(3):
        band = bands[lag, : n_bins - lag].astype(np.longdouble)[:, None]
        applied[: n_bins - lag] += band * wide[lag:]
        if lag:
            applied[lag:] += band * wide[: n_bins - lag]
    residual = (b - applied).astype(complex)
    second = solve(residual.real, residual.imag, probe)

    spread = np.abs(d1[2:]) + np.abs(d1[1:-1]) + np.abs(d2[2:]) + np.abs(d2[:-2])
    norm = (np.abs(diag[2:]) + spread[:, None]).max(axis=0)
    cond = norm * np.maximum(np.abs(x).sum(axis=0), np.abs(second[..., 2]).sum(axis=0))
    if not np.all(cond <= COND_LIMIT):  # a nan estimate fails too
        raise IllConditionedError(
            f"normal matrix condition estimate {np.max(cond):.3e} is not below "
            f"{COND_LIMIT:.1e}; increase alpha"
        )
    return g + (second[..., 0] + 1j * second[..., 1]), cond


def estimate_htf(problem: EstimationProblem) -> HarmonicTransferSet:
    """Regularized least-squares estimate of G_{-N}..G_{N}.

    Forms each order's Gram diagonal a and right-hand side b from the
    per-bin regressors of all records and solves one penalized system per
    order (`_solve_orders`).  With alpha = 0 (or fewer than 3 bins, where
    the second-difference penalty is undefined) nothing couples
    neighboring bins, and each bin's least-squares answer is b/a: columns
    without excitation get an exact zero.  Returns the estimate in the
    output-frequency convention, with a per-harmonic mask of bins whose
    regressor column actually carried excitation (values on masked-out
    bins are purely penalty interpolation, or zero in the uncoupled case)
    and solver diagnostics attached (listed in the README).  Raises
    `NoDataError` if excitation screening leaves no usable bins, and
    `IllConditionedError` if a penalized order's matrix is singular (a
    harmonic excited at fewer than two bins) or its 1-norm condition
    estimate is not below 1e14; a larger alpha regularizes the latter.
    """
    bins = _candidate_bins(problem)
    omegas = bins * problem.records[0].bin_spacing
    N = problem.n_harmonics

    Phi, y, mask = _regressor_tensor(problem, bins)
    a = np.square(Phi.real).sum(axis=1) + np.square(Phi.imag).sum(axis=1)
    b = np.conjugate((y.conj()[:, None, :] @ Phi)[:, 0])  # Phi^H y, with no copy of Phi
    G, cond = _solve_orders(problem, a, b)
    orders = range(-N, N + 1)
    harmonics = {n: G[:, col].copy() for col, n in enumerate(orders)}
    masks = {n: mask[:, col].copy() for col, n in enumerate(orders)}
    data_residual, penalty_value, residual = _misfit(problem, Phi, y, G)
    projected = residual @ _phase_factors(problem).conj()
    by_order = np.sum(np.abs(projected) ** 2, axis=0) / len(problem.records)

    diagnostics = {
        "alpha": problem.alpha,
        "n_records": len(problem.records),
        "n_bins": int(bins.size),
        "n_harmonics": N,
        "cond_estimate": float(cond.max()),
        "cond_by_order": cond.tolist(),
        "data_residual": data_residual,
        "data_residual_by_order": by_order.tolist(),
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
    as `estimate_htf` returns) and provide all orders |n| <= N.  No
    command calls it; it stays public as the estimator's optimality
    oracle, which the tests compare against: no admissible set can beat
    the estimate.
    """
    bins = _candidate_bins(problem)
    omegas = bins * problem.records[0].bin_spacing
    if not same_grid(hts.omega_grid, omegas):
        raise InvalidInputError("harmonic set is not on the problem's bin grid")
    N = problem.n_harmonics
    Phi, y, _ = _regressor_tensor(problem, bins)
    G = np.column_stack([hts.harmonics[n] for n in range(-N, N + 1)])
    data_residual, penalty_value, _ = _misfit(problem, Phi, y, G)
    return data_residual + penalty_value
