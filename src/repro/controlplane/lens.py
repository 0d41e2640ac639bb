"""LENS-style compressive sensing solver (§5.3, Eq. 4).

Solves the matrix interpolation problem

    minimize   alpha*||T||_*  +  beta*||x||_1  +  (1/(2*gamma))*||Y||_F^2
    subject to T = N + A x + Y
               lower <= x <= upper          (Eq. 3, Lemma 4.1 bounds)
               sum(x) + mass(Y) = V         (Eq. 2, volume conservation)
               Y >= 0

where ``N`` is the merged normal-path sketch matrix, ``A`` the sketch's
linear operator restricted to the fast-path-tracked flows (their hash
positions are recomputable from the shared seeds), and ``Y ~ sk(y)``
the small-noise image of the untracked small flows.

The solver is an alternating-direction method, as in LENS [9]:
singular-value thresholding handles the nuclear norm, a proximal
gradient step with soft-thresholding and box projection handles the
``x`` block, a closed-form shrinkage handles ``Y``, and a scaling
projection enforces volume conservation each sweep.  Per §5.3, sketches
without low-rank structure (Count-Min-like) drop the nuclear term
(``alpha = 0``), exactly as the paper prescribes.

The thresholding keeps only the singular values above ``alpha/rho``,
and on a low-rank sketch matrix (Fig. 5) those are a handful: 8-12 of
the 420 of a 32-host Deltoid matrix.  So it factors only the leading
subspace, found by a seeded randomized range finder (Halko, Martinsson
and Tropp, SIAM Review 2011), and never truncates silently: while
every value it found clears the threshold it doubles the rank, and
once twice the rank reaches the short side it factors the whole
matrix exactly.  Every factorization walks one ladder: LAPACK gesdd,
then gesvd, then (in :func:`lens_interpolate`) the Eq. 3 box midpoint.

All quantities are normalized by ``max(N)`` internally so the paper's
parameter formulas (computed on matrix densities) behave consistently
across sketch scales.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.common.errors import ConfigError
from repro.sketches.base import Positions

#: beta = sqrt(2 * log2(flow key space)) = sqrt(2 * 104) per §5.3.
PAPER_BETA = math.sqrt(2 * 104)


@dataclass
class LensConfig:
    """Solver parameters.  ``None`` selects the paper's formulas (§5.3)."""

    alpha: float | None = None  # (sqrt(m)+sqrt(n)) * sqrt(density(N))
    beta: float | None = None  # sqrt(2*104)
    gamma: float | None = None  # 10 * estimated noise std
    rho: float = 1.0  # ADMM penalty
    max_iterations: int = 60
    tolerance: float = 1e-4
    x_inner_steps: int = 5  # proximal-gradient steps per sweep
    #: §7.5 early termination: stop once the per-flow estimates x have
    #: stabilized (relative change below this), even if the nuclear /
    #: noise terms have not converged — "it is possible to terminate
    #: the computation early even though these unnecessary terms do not
    #: converge" (the paper cuts Deltoid's recovery from 64s to 11s).
    #: ``None`` disables early termination.
    x_stability_tolerance: float | None = 1e-2
    #: Quadratic anchor pulling x toward the Eq. 3 box midpoint — the
    #: minimax-optimal point under Lemma 4.1 (error <= e_f / 2).  The
    #: low-rank coupling *refines* the estimate around it; without the
    #: anchor, long solves can drift x within wide boxes to absorb the
    #: volume constraint.  Scaled against the coupling's Lipschitz
    #: constant, so the per-step pull toward the midpoint is this
    #: fraction of the distance.
    midpoint_anchor: float = 0.25


@dataclass
class LensResult:
    """Solution of the interpolation problem."""

    x: np.ndarray  # per-tracked-flow byte estimates
    noise: np.ndarray  # Y ~ sk(y)
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    #: SVDs the divide-and-conquer driver (gesdd) gave up on and the
    #: slower QR driver (gesvd) answered.
    gesvd_retries: int = 0
    #: Some sweep's range finder doubled its rank up to the cap (every
    #: value it found cleared the threshold), and the exact SVD of the
    #: whole matrix answered.
    full_svd: bool = False
    #: Neither driver converged: ``x`` is the Eq. 3 box midpoint and
    #: ``converged`` is False.
    svd_failed: bool = False
    #: Builds :attr:`matrix`; dropped once it has.
    build_matrix: Callable[[], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The recovered ``T = N + A x + Y``, built on first read:
        recovery reads only ``x`` and the solve's flags."""
        build, self.build_matrix = self.build_matrix, None
        return build()


#: Range finder settings: the starting rank of the Gaussian test
#: matrix, the power iterations that sharpen its subspace, and the
#: seed, fixed so every mode and every run shrinks a matrix to the same
#: bits.  On the 420 x 1024 matrices of 32-host Deltoid epochs, rank 32
#: with two iterations came within 2.9e-5 (max relative difference) of
#: the exact shrink; rank 16 with one was up to 1.6e-2 off.
RANGE_RANK = 32
POWER_ITERATIONS = 2
RANGE_SEED = 0x5EED


def _factor(
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Thin SVD ``(u, s, vt)`` plus whether gesvd answered.

    ``np.linalg.svd`` (LAPACK gesdd) can fail to converge on ordinary
    finite inputs; gesvd is slower but converges on them.  Raises
    ``LinAlgError`` only when both give up.
    """
    try:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        return u, s, vt, False
    except np.linalg.LinAlgError:
        # Imported where it is needed: scipy.linalg costs every process
        # ~6 MB of resident memory, and almost none ever gets here.
        from scipy import linalg

        u, s, vt = linalg.svd(
            matrix, full_matrices=False, lapack_driver="gesvd"
        )
        return u, s, vt, True


def _range(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal ``m x rank`` basis of ``matrix``'s leading range."""
    test = np.random.default_rng(RANGE_SEED).standard_normal(
        (matrix.shape[1], rank)
    )
    basis = np.linalg.qr(matrix @ test)[0]
    for _ in range(POWER_ITERATIONS):
        basis = np.linalg.qr(matrix.T @ basis)[0]
        basis = np.linalg.qr(matrix @ basis)[0]
    return basis


def _shrink(
    matrix: np.ndarray, threshold: float
) -> tuple[np.ndarray, int, bool]:
    """:func:`singular_value_threshold`, plus how many factorizations
    gesvd answered and whether the range finder reached its cap and the
    exact SVD of the whole matrix answered.

    Raises ``LinAlgError`` when neither LAPACK driver converges.
    """
    retries = 0
    rank = RANGE_RANK
    while 2 * rank < min(matrix.shape):
        basis = _range(matrix, rank)
        u, s, vt, retried = _factor(basis.T @ matrix)
        retries += retried
        if s[-1] <= threshold:
            # The projection holds a value the threshold drops, so its
            # ``rank`` leading directions hold every one it keeps.
            return _rebuild(basis @ u, s, vt, threshold), retries, False
        rank *= 2
    u, s, vt, retried = _factor(matrix)
    return (
        _rebuild(u, s, vt, threshold),
        retries + retried,
        rank > RANGE_RANK,
    )


def _rebuild(u, s, vt, threshold: float) -> np.ndarray:
    """``u diag(max(s - threshold, 0)) vt`` over the surviving values."""
    s = s - threshold
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep]


def _median(values: np.ndarray) -> np.floating:
    """``np.median`` of a 1-D array holding no NaN, from one partition:
    the middle value, or the mean of the middle two."""
    half = len(values) // 2
    if len(values) % 2:
        return np.partition(values, half)[half]
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return (low + high) / 2.0


def singular_value_threshold(
    matrix: np.ndarray, threshold: float
) -> np.ndarray:
    """Prox of the nuclear norm: shrink singular values by threshold."""
    return _shrink(matrix, threshold)[0]


def _build_operator(
    positions: Positions, shape: tuple[int, int], num_flows: int
) -> sparse.csr_matrix:
    """Sparse (m*n) x num_flows matrix applying sk() to the x vector,
    from :meth:`~repro.sketches.base.Sketch.matrix_positions` arrays."""
    flow_index, rows, cols, coefs = positions
    if flow_index.size and flow_index.max() >= num_flows:
        raise ConfigError("bounds must match the number of tracked flows")
    return sparse.csr_matrix(
        (coefs, (rows * shape[1] + cols, flow_index)),
        shape=(shape[0] * shape[1], num_flows),
    )


def _scaled_box(n_matrix, num_flows: int, lower, upper, volume: float):
    """Validate the Eq. 2/3 inputs; return ``(N, scale, lo, hi)`` with
    the bounds normalized by ``scale = max(N.max(), upper.max(), 1)``."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != (num_flows,) or upper.shape != (num_flows,):
        raise ConfigError("bounds must match the number of tracked flows")
    if np.any(lower > upper):
        raise ConfigError("lower bounds must not exceed upper bounds")
    if volume < 0:
        raise ConfigError("volume must be non-negative")
    n = np.asarray(n_matrix, dtype=np.float64)
    scale = float(max(n.max(initial=0.0), upper.max(initial=0.0), 1.0))
    return n, scale, lower / scale, upper / scale


def box_midpoint(
    n_matrix: np.ndarray, lower, upper, volume: float
) -> np.ndarray:
    """The Eq. 3 box midpoint per tracked flow, through the solver's
    normalization.

    This is the ``x`` :func:`lens_interpolate` answers when the nuclear
    term is dropped (§5.3, sketches with no low-rank structure), bit
    for bit, without the sketch operator or the recovered matrix.
    """
    _n, scale, lo, hi = _scaled_box(
        n_matrix, len(lower), lower, upper, volume
    )
    return ((lo + hi) / 2.0) * scale


def lens_interpolate(
    n_matrix: np.ndarray,
    positions: Positions,
    lower: np.ndarray,
    upper: np.ndarray,
    volume: float,
    low_rank: bool = True,
    config: LensConfig | None = None,
) -> LensResult:
    """Recover ``T``, ``x`` and ``Y`` from the merged measurement state.

    Parameters
    ----------
    n_matrix:
        Merged normal-path sketch matrix ``N``.
    positions:
        The tracked flows' sketch positions, as
        :meth:`~repro.sketches.base.Sketch.matrix_positions` returns
        them: ``(flow_index, rows, cols, coefs)``.
    lower, upper:
        Lemma 4.1 per-flow bounds (Eq. 3).
    volume:
        Total fast-path byte count ``V`` (Eq. 2).
    low_rank:
        Whether to keep the nuclear-norm term (§5.3 drops it for
        sketches with no low-rank structure).
    """
    config = config or LensConfig()
    num_flows = len(lower)
    n, scale, lo, hi = _scaled_box(
        n_matrix, num_flows, lower, upper, volume
    )
    m_rows, n_cols = n.shape
    n_scaled = n / scale
    vol = volume / scale

    # Paper parameter formulas (§5.3), on the normalized matrix.
    density = float(n_scaled.sum()) / (m_rows * n_cols)
    alpha = config.alpha
    if alpha is None:
        alpha = (math.sqrt(m_rows) + math.sqrt(n_cols)) * math.sqrt(
            max(density, 1e-12)
        )
    if not low_rank:
        alpha = 0.0
    # beta (the l1 weight, sqrt(2*104) per §5.3) is inactive inside the
    # Eq. 3 box: its subgradient is the constant beta*sign(x) there, so
    # it shifts but never re-orders interior solutions, and the
    # midpoint anchor dominates.  Kept in LensConfig for completeness.
    gamma = config.gamma
    if gamma is None:
        nonzero = n_scaled[n_scaled > 0]
        if len(nonzero) > 1:
            small = nonzero[nonzero <= _median(nonzero)]
            noise_std = float(small.std()) if len(small) > 1 else 1e-3
        else:
            noise_std = 1e-3
        gamma = 10.0 * max(noise_std, 1e-6)
    rho = config.rho

    if num_flows == 0:
        # Nothing tracked: spread the whole fast-path volume as noise.
        noise = np.full_like(n_scaled, vol / (m_rows * n_cols))
        return LensResult(
            x=np.zeros(0),
            noise=noise * scale,
            iterations=0,
            converged=True,
            build_matrix=lambda: (n_scaled + noise) * scale,
        )

    operator = _build_operator(positions, n.shape, num_flows)
    # Per-unit mass each flow deposits (for the volume projection) and
    # the Lipschitz bound of the x block: the operator's column sums of
    # |a| and a^2.  ``bincount`` adds each column's entries in row
    # order, as scipy's column sum does.
    abs_mass = np.bincount(
        operator.indices, weights=np.abs(operator.data), minlength=num_flows
    )
    mean_mass = float(abs_mass.mean()) if len(abs_mass) else 1.0
    col_sq = np.bincount(
        operator.indices,
        weights=operator.data * operator.data,
        minlength=num_flows,
    )
    lipschitz = float(col_sq.max(initial=1.0))
    step = 1.0 / (rho * lipschitz)

    def apply_a(x: np.ndarray) -> np.ndarray:
        return (operator @ x).reshape(m_rows, n_cols)

    def apply_at(matrix: np.ndarray) -> np.ndarray:
        return operator.T @ matrix.reshape(-1)

    def midpoint_result(**outcome) -> LensResult:
        """The box midpoint for x, the leftover volume as the
        Frobenius-minimal (uniform) noise."""
        x = (lo + hi) / 2.0
        remaining = max(vol - float(x.sum()), 0.0)
        noise = np.full_like(
            n_scaled, remaining * mean_mass / (m_rows * n_cols)
        )
        return LensResult(
            x=x * scale,
            noise=noise * scale,
            build_matrix=lambda: (n_scaled + apply_a(x) + noise) * scale,
            **outcome,
        )

    if alpha == 0.0:
        # Without the nuclear term the objective separates: inside the
        # Eq. 3 box, beta*||x||_1 is linear and the Frobenius term only
        # couples through the total mass, so the minimax-optimal
        # interior choice is the box midpoint for x (error <= e_f / 2
        # per flow, Lemma 4.1).  This is also the §5.3 prescription:
        # for sketches with no low-rank structure the ||T||_* term is
        # dropped from the optimization.
        return midpoint_result(iterations=0, converged=True)

    # ------------------------------------------------------------------
    # x block.  Within the Eq. 3 box the per-flow estimate is decided
    # by Lemma 4.1, not by the matrix terms: the box midpoint is the
    # minimax-optimal interior point (error <= e_f / 2; for the
    # vast majority of tracked flows e_f is tiny, Figure 16b).  A few
    # refinement steps of the coupled objective run below with a
    # midpoint trust region; they matter only for late-inserted flows
    # whose boxes are genuinely wide.
    # ------------------------------------------------------------------
    midpoint = (lo + hi) / 2.0
    x = midpoint.copy()
    remaining = max(vol - float(x.sum()), 0.0)
    target_mass = remaining * mean_mass
    noise = np.full_like(n_scaled, target_mass / (m_rows * n_cols))
    # The sweep's two other full-size buffers: the previous sweep's
    # noise, and T, which becomes its nuclear pull and then the change.
    # T's ``N + A x`` is taken at the start of the sweep that reads it,
    # so the final x costs no product.
    previous = np.empty_like(n_scaled)
    pull = np.empty_like(n_scaled)

    residuals: list[float] = []
    converged = False
    iteration = 0
    gesvd_retries = 0
    full_svd = False

    # ------------------------------------------------------------------
    # T/Y refinement (nuclear path): with x pinned to the box interior,
    # minimize  alpha*||N + A x + Y||_* + (1/2 gamma)*||Y||_F^2  over
    # Y >= 0 with mass(Y) fixed by Eq. 2, by projected proximal
    # iterations (SVT subgradient + shrinkage + simplex-style mass
    # rescaling).  This is where the low-rank structure of T fills the
    # counters the fast path's traffic never reached.
    # ------------------------------------------------------------------
    eta = 1.0 / (1.0 + 1.0 / gamma)  # step for the smooth Y term
    for iteration in range(1, config.max_iterations + 1):
        noise, previous = previous, noise
        t_matrix = np.add(n_scaled, apply_a(x), out=pull)
        np.add(t_matrix, previous, out=t_matrix)
        # Nuclear-norm subgradient at T: alpha * U V^T on the leading
        # components (SVT of T minus T is the proximal direction).
        try:
            shrunk, retried, full = _shrink(t_matrix, alpha / rho)
        except np.linalg.LinAlgError:
            # No LAPACK driver factorized T: the refinement cannot
            # run, but Lemma 4.1 still answers — hand back the point
            # the sweep started from and let the caller see the flag.
            return midpoint_result(
                iterations=iteration - 1,
                converged=False,
                residuals=residuals,
                gesvd_retries=gesvd_retries,
                full_svd=full_svd,
                svd_failed=True,
            )
        gesvd_retries += retried
        full_svd = full_svd or full
        # T minus its shrink points away from low rank.
        nuclear_pull = np.subtract(t_matrix, shrunk, out=pull)
        # noise = previous - eta * (nuclear_pull / rho + previous / gamma),
        # one operation at a time.
        np.divide(nuclear_pull, rho, out=shrunk)
        np.divide(previous, gamma, out=noise)
        np.add(shrunk, noise, out=noise)
        np.multiply(eta, noise, out=noise)
        np.subtract(previous, noise, out=noise)
        # Small refinement of wide-box x toward the denoised matrix.
        coupling = apply_at(nuclear_pull) / max(lipschitz, 1.0)
        x = np.clip(
            x
            - step * coupling
            - config.midpoint_anchor * step * (x - midpoint),
            lo,
            hi,
        )
        # Projections: positivity and the Eq. 2 mass.
        np.maximum(noise, 0.0, out=noise)
        remaining = max(vol - float(x.sum()), 0.0)
        target_mass = remaining * mean_mass
        current_mass = float(noise.sum())
        if target_mass <= 0:
            noise[:] = 0.0
        elif current_mass <= 1e-12:
            noise[:] = target_mass / (m_rows * n_cols)
        else:
            noise *= target_mass / current_mass

        # |noise - previous| in the pull's buffer; previous is spent.
        np.subtract(noise, previous, out=pull)
        change = float(np.abs(pull, out=pull).sum()) / (
            1.0 + float(np.abs(previous, out=previous).sum())
        )
        residuals.append(change)
        if change < config.tolerance:
            converged = True
            break
        if (
            config.x_stability_tolerance is not None
            and iteration >= 3
            and change < config.x_stability_tolerance
        ):
            # §7.5 early termination: the useful components (x and the
            # noise field) have stabilized; the nuclear term need not
            # converge for the measurement tasks to be answerable.
            converged = True
            break

    return LensResult(
        x=x * scale,
        noise=np.multiply(noise, scale, out=previous),
        iterations=iteration,
        converged=converged,
        residuals=residuals,
        gesvd_retries=gesvd_retries,
        full_svd=full_svd,
        build_matrix=lambda: (n_scaled + apply_a(x) + noise) * scale,
    )
