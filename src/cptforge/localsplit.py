"""Splitting a joint simplex into totals and per-row proportions.

A point of the 6-outcome simplex, read as a 2x3 row-major table, splits
into the pair of row totals (a point over 2) and the two within-row
proportion vectors (points over 3); the split is a bijection onto the
product of the three smaller simplices.  A Dirichlet on the joint simplex
pushes forward to an *independent* triple: the row totals follow the
Dirichlet with row-summed pseudo-counts, and each proportion vector follows
the Dirichlet of its own row.

The audit below checks, by sampling, which local parameterisation that
pushforward actually matches after one joint observation, and evaluates the
proportionality constant attached to the shifted candidate.  Since a
pushforward of a probability measure has total mass 1, any candidate scaled
by a constant other than 1 cannot be correct as a measure; the audit makes
that tension explicit instead of hiding it.

Points are rows of an (N, 6) array; the table shape is fixed at 2x3
(`SHAPE`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dirichlet import (
    HyperParams,
    dirichlet_covariance,
    dirichlet_mean,
    dirichlet_pdf_many,
    dirichlet_sample_many,
    simplex_rows,
)
from .rng import make_rng

SHAPE = (2, 3)


def split(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split (N, 6) interior points into row totals and row proportions.

    Returns (totals, shares) with shapes (N, 2) and (N, 2, 3): row i of a
    point has total totals[:, i] and within-row proportions shares[:, i, :].
    """
    rows, cols = SHAPE
    xs = simplex_rows(xs, rows * cols)
    table = xs.reshape(len(xs), rows, cols)
    totals = table.sum(axis=2)
    shares = table / totals[:, :, None]
    return totals, shares


def unsplit(totals: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Reassemble (N, 6) joint points: cell (i, j) = total_i * share_ij."""
    joint = np.asarray(totals, dtype=float)[:, :, None] * np.asarray(shares, dtype=float)
    return joint.reshape(len(joint), -1)


def _row_params(alpha: HyperParams):
    rows, cols = SHAPE
    if alpha.n != rows * cols:
        raise ValueError(f"expected {rows * cols} pseudo-counts, got {alpha.n}")
    return tuple(
        HyperParams(alpha.alphas[i * cols : (i + 1) * cols]) for i in range(rows)
    )


def shifted_prefactor(beta1: int, beta2: int) -> Fraction:
    """Constant turning the quotient form into the shifted form.

    Rewriting d2(b1, b2)(y) / (y1^2 y2^2) as a multiple of d2(b1-2, b2-2)(y)
    produces this exact rational factor.  Needs both totals >= 3.
    """
    b = beta1 + beta2
    den = (beta1 - 1) * (beta1 - 2) * (beta2 - 1) * (beta2 - 2)
    if den == 0:
        raise ValueError("shifted form needs both row totals >= 3")
    return Fraction((b - 1) * (b - 2) * (b - 3) * (b - 4), den)


def pdf_factorization_check(
    alpha: HyperParams, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the joint density and its two factorised forms at each row of xs.

    Returns (N,) arrays (lhs, rhs_quotient, rhs_shifted): the 6-outcome
    density, the product (totals density / y1^2 y2^2) * row densities, and
    the same with the totals density shifted down by two and the matching
    constant pulled out.  All three agree up to floating-point roundoff.
    """
    row_alphas = _row_params(alpha)
    betas = tuple(a.total for a in row_alphas)

    totals, shares = split(xs)
    lhs = dirichlet_pdf_many(alpha, xs)
    share_densities = (
        dirichlet_pdf_many(row_alphas[0], shares[:, 0])
        * dirichlet_pdf_many(row_alphas[1], shares[:, 1])
    )
    totals_density = dirichlet_pdf_many(HyperParams(betas), totals)
    rhs_quotient = totals_density / (totals[:, 0] ** 2 * totals[:, 1] ** 2) * share_densities

    shifted = HyperParams((betas[0] - 2, betas[1] - 2))
    rhs_shifted = (
        float(shifted_prefactor(*betas))
        * dirichlet_pdf_many(shifted, totals)
        * share_densities
    )
    return lhs, rhs_quotient, rhs_shifted


def update_constant(beta1: int, beta2: int, row: int) -> Fraction:
    """The proportionality constant attached to the shifted update claim.

    Computed from the pre-update row totals, with the denominator built
    from the incremented row first.  Not equal to 1 in general, which is
    exactly what the audit flags.
    """
    if row not in (0, 1):
        raise ValueError("row must be 0 or 1")
    b = beta1 + beta2
    br, bo = (beta1, beta2) if row == 0 else (beta2, beta1)
    den = br * (br - 1) * (bo - 1) * (bo - 2)
    if den == 0:
        raise ValueError("constant undefined for these row totals")
    return Fraction(b * (b - 1) * (b - 2) * (b - 3), den)


@dataclass(frozen=True)
class ComponentStats:
    mean: tuple[float, ...]
    var: tuple[float, ...]
    se_mean: tuple[float, ...]
    se_var: tuple[float, ...]


@dataclass(frozen=True)
class CandidateFit:
    """How well one local parameterisation matches the sampled pushforward."""

    name: str
    totals_params: tuple[int, ...]
    row0_params: tuple[int, ...]
    row1_params: tuple[int, ...]
    claimed_mass: float
    max_abs_z: float
    matches: bool


@dataclass(frozen=True)
class LocalUpdateAudit:
    alpha: HyperParams
    cell: tuple[int, int]
    n_samples: int
    seed: int
    pushforward_mass: float
    empirical: dict[str, ComponentStats]
    candidates: tuple[CandidateFit, ...]
    matching_candidates: tuple[str, ...]
    shifted_constant: Fraction
    constant_is_one: bool

    def format_report(self) -> str:
        lines = [
            f"local update audit: alpha={self.alpha.alphas}, "
            f"incremented cell={self.cell}, samples={self.n_samples}, seed={self.seed}",
            f"pushforward total mass: {self.pushforward_mass} (a probability measure)",
        ]
        for block, stats in self.empirical.items():
            means = ", ".join(f"{m:.5f}" for m in stats.mean)
            lines.append(f"  empirical {block} means: ({means})")
        for cand in self.candidates:
            verdict = "MATCH" if cand.matches else "MISMATCH"
            lines.append(
                f"  candidate {cand.name}: totals Dir{cand.totals_params}, "
                f"rows Dir{cand.row0_params} x Dir{cand.row1_params}, "
                f"claimed mass {cand.claimed_mass:g}, max |z| = {cand.max_abs_z:.2f} "
                f"-> {verdict}"
            )
        lines.append(
            f"  shifted-candidate constant: {self.shifted_constant} "
            f"= {float(self.shifted_constant):g}"
        )
        if not self.constant_is_one:
            lines.append(
                "  note: the constant differs from 1, but a pushforward of a "
                "probability measure has total mass 1, so the scaled shifted "
                "product cannot match it as a measure; the empirically "
                f"supported parameterisation is: {', '.join(self.matching_candidates) or 'none'}"
            )
        return "\n".join(lines)


def _component_stats(samples: np.ndarray) -> ComponentStats:
    n = len(samples)
    mean = samples.mean(axis=0)
    centered = samples - mean
    var = (centered**2).sum(axis=0) / (n - 1)
    m4 = (centered**4).mean(axis=0)
    se_mean = np.sqrt(var / n)
    se_var = np.sqrt(np.maximum(m4 - var**2, 0.0) / n)
    return ComponentStats(tuple(mean), tuple(var), tuple(se_mean), tuple(se_var))


def _fit_z(stats: ComponentStats, params: HyperParams) -> float:
    mean = [float(p) for p in dirichlet_mean(params).probs]
    cov = dirichlet_covariance(params)
    z = 0.0
    for k in range(params.n):
        z = max(z, abs(stats.mean[k] - mean[k]) / stats.se_mean[k])
        z = max(z, abs(stats.var[k] - float(cov[k][k])) / stats.se_var[k])
    return z


def local_update_audit(
    alpha: HyperParams,
    increment_cell: tuple[int, int],
    samples: int = 100_000,
    seed: int = 0,
) -> LocalUpdateAudit:
    """Sample-based audit of joint-versus-local conjugate updates.

    Draws from the jointly updated Dirichlet (the cell's pseudo-count
    incremented), splits every draw into totals and row proportions, and
    compares the per-component means and variances against two candidate
    local parameterisations:

    * direct: totals pseudo-counts with the updated row incremented, the
      updated row incremented at the observed column, other row unchanged;
    * shifted: as above but with both totals lowered by two before the
      increment, the form that comes with a proportionality constant.

    Components are judged at four standard errors.  The constant attached
    to the shifted form is evaluated and reported alongside.
    """
    rows, cols = SHAPE
    if alpha.n != rows * cols:
        raise ValueError(f"expected {rows * cols} pseudo-counts, got {alpha.n}")
    i, j = increment_cell
    if not (0 <= i < rows and 0 <= j < cols):
        raise ValueError(f"cell {increment_cell} outside the {rows}x{cols} table")
    if samples < 10_000:
        raise ValueError("need at least 10000 samples for a meaningful audit")
    row_alphas = _row_params(alpha)
    betas = tuple(a.total for a in row_alphas)
    if min(betas) < 3:
        raise ValueError("audit needs both row totals >= 3 (shifted form)")

    updated = alpha.increment(i * cols + j)
    draws = dirichlet_sample_many(updated, samples, make_rng(seed))
    totals, shares = split(draws)

    empirical = {
        "totals": _component_stats(totals),
        "row0": _component_stats(shares[:, 0, :]),
        "row1": _component_stats(shares[:, 1, :]),
    }

    updated_rows = list(row_alphas)
    updated_rows[i] = row_alphas[i].increment(j)

    constant = update_constant(*betas, row=i)
    candidate_specs = [
        ("direct", HyperParams(betas).increment(i), 1.0),
        (
            "shifted",
            HyperParams((betas[0] - 2, betas[1] - 2)).increment(i),
            float(constant),
        ),
    ]
    candidates = []
    for name, totals_params, claimed_mass in candidate_specs:
        z = max(
            _fit_z(empirical["totals"], totals_params),
            _fit_z(empirical["row0"], updated_rows[0]),
            _fit_z(empirical["row1"], updated_rows[1]),
        )
        candidates.append(
            CandidateFit(
                name=name,
                totals_params=totals_params.alphas,
                row0_params=updated_rows[0].alphas,
                row1_params=updated_rows[1].alphas,
                claimed_mass=claimed_mass,
                max_abs_z=z,
                matches=z <= 4.0,
            )
        )

    return LocalUpdateAudit(
        alpha=alpha,
        cell=increment_cell,
        n_samples=samples,
        seed=seed,
        pushforward_mass=1.0,
        empirical=empirical,
        candidates=tuple(candidates),
        matching_candidates=tuple(c.name for c in candidates if c.matches),
        shifted_constant=constant,
        constant_is_one=constant == 1,
    )
