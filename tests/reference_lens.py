"""The LENS oracles: the exact nuclear step and the solver as first written.

``exact_shrink`` is the nuclear step as it was written first: one full
gesdd SVD of the whole matrix, every value shrunk by ``threshold``, and
the matrix rebuilt from the survivors.  ``repro.controlplane.lens``
factors only the leading subspace a seeded randomized range finder
finds, and must keep the same number of values and agree with this
within the tolerance ``tests/test_merge_lens.py`` states.

``lens_interpolate`` is the solver with a fresh array for every
intermediate and the recovered ``T`` built eagerly.
``repro.controlplane.lens`` runs the same floating-point operations in
the same order through a fixed set of buffers, so every field of its
result must equal this one's bit for bit (``tests/test_merge_lens.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.controlplane.lens import (
    LensConfig,
    _build_operator,
    _scaled_box,
    _shrink,
)
from repro.sketches.base import Positions


def exact_shrink(
    matrix: np.ndarray, threshold: float
) -> tuple[np.ndarray, int]:
    """The shrunk matrix and how many singular values survived."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(matrix), 0
    return (u[:, keep] * s[keep]) @ vt[keep], int(keep.sum())


@dataclass
class LensResult:
    """The solver's answer, ``matrix`` included."""

    matrix: np.ndarray
    x: np.ndarray
    noise: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    gesvd_retries: int = 0
    full_svd: bool = False
    svd_failed: bool = False


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
            small = nonzero[nonzero <= np.median(nonzero)]
            noise_std = float(small.std()) if len(small) > 1 else 1e-3
        else:
            noise_std = 1e-3
        gamma = 10.0 * max(noise_std, 1e-6)
    rho = config.rho

    if num_flows == 0:
        # Nothing tracked: spread the whole fast-path volume as noise.
        noise = np.full_like(n_scaled, vol / (m_rows * n_cols))
        return LensResult(
            matrix=(n_scaled + noise) * scale,
            x=np.zeros(0),
            noise=noise * scale,
            iterations=0,
            converged=True,
        )

    operator = _build_operator(positions, n.shape, num_flows)
    # Per-unit mass each flow deposits (for the volume projection) and
    # the Lipschitz bound of the x block.
    abs_mass = np.asarray(
        np.abs(operator).sum(axis=0)
    ).reshape(-1)
    mean_mass = float(abs_mass.mean()) if len(abs_mass) else 1.0
    col_sq = np.asarray(operator.multiply(operator).sum(axis=0)).reshape(-1)
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
            matrix=(n_scaled + apply_a(x) + noise) * scale,
            x=x * scale,
            noise=noise * scale,
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
    base = n_scaled + apply_a(x)
    remaining = max(vol - float(x.sum()), 0.0)
    target_mass = remaining * mean_mass
    noise = np.full_like(n_scaled, target_mass / (m_rows * n_cols))

    residuals: list[float] = []
    converged = False
    iteration = 0
    gesvd_retries = 0
    full_svd = False

    # ------------------------------------------------------------------
    # T/Y refinement (nuclear path): with x pinned to the box interior,
    # minimize  alpha*||base + Y||_* + (1/2 gamma)*||Y||_F^2  over
    # Y >= 0 with mass(Y) fixed by Eq. 2, by projected proximal
    # iterations (SVT subgradient + shrinkage + simplex-style mass
    # rescaling).  This is where the low-rank structure of T fills the
    # counters the fast path's traffic never reached.
    # ------------------------------------------------------------------
    eta = 1.0 / (1.0 + 1.0 / gamma)  # step for the smooth Y term
    for iteration in range(1, config.max_iterations + 1):
        noise_previous = noise
        t_matrix = base + noise
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
        nuclear_pull = t_matrix - shrunk  # points away from low rank
        noise = noise - eta * (nuclear_pull / rho + noise / gamma)
        # Small refinement of wide-box x toward the denoised matrix.
        coupling = apply_at(nuclear_pull) / max(lipschitz, 1.0)
        x = np.clip(
            x
            - step * coupling
            - config.midpoint_anchor * step * (x - midpoint),
            lo,
            hi,
        )
        base = n_scaled + apply_a(x)
        # Projections: positivity and the Eq. 2 mass.
        noise = np.maximum(noise, 0.0)
        remaining = max(vol - float(x.sum()), 0.0)
        target_mass = remaining * mean_mass
        current_mass = float(noise.sum())
        if target_mass <= 0:
            noise[:] = 0.0
        elif current_mass <= 1e-12:
            noise[:] = target_mass / (m_rows * n_cols)
        else:
            noise *= target_mass / current_mass

        change = float(np.abs(noise - noise_previous).sum()) / (
            1.0 + float(np.abs(noise_previous).sum())
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

    t_matrix = (n_scaled + apply_a(x) + noise) * scale
    return LensResult(
        matrix=t_matrix,
        x=x * scale,
        noise=noise * scale,
        iterations=iteration,
        converged=converged,
        residuals=residuals,
        gesvd_retries=gesvd_retries,
        full_svd=full_svd,
    )
