"""The local parameterisation of a joint Dirichlet: its totals and rows.

A point of the joint simplex over an r x c table (r parent configurations,
c outcomes, row-major) is a full-support `Dist` over r*c.  `disintegrate`
splits it into its r row totals y (a point over r) and a channel whose rows
are the r within-row proportion vectors s_i (points over c), and
`pair_graph` inverts it: a bijection onto the product of the r + 1 smaller
open simplices.  A Dirichlet on the joint simplex pushes forward to
*independent* factors: the totals follow the Dirichlet of the row-summed
pseudo-counts beta, and each s_i the Dirichlet of its own row (Geiger &
Heckerman, Ann. Statist. 25(3), 1997):

    d(alpha)(x) = d(beta)(y) / prod_i y_i^(c-1) * prod_i d(alpha_i)(s_i).

Moving the Jacobian y_i^(c-1) into the totals density lowers each total
by c-1 at the price of a constant (`shifted_prefactor`).  The audit below
checks, with exact Dirichlet moments, which local parameterisation the
pushforward matches after one joint observation, and reports that
constant: a pushforward of a probability measure has total mass 1, so a
candidate scaled by a constant other than 1 cannot be correct as a measure.
Cell (i, j) of a joint point is y_i s_ij, so under independence every
joint moment is the totals' moment at the row degrees times each row's own
moment, and each side is an exact `dirichlet_moment`.

The split and the densities are exact, so the factorisation is an identity
between rationals.  A pseudo-count table is a tuple of r row `HyperParams`
of c entries each, as `LearnedCPT.posteriors`: `row_extract(joint, c)` of
its row-major joint, whose beta is `ms_map` along `FinMap.proj1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dirichlet import HyperParams, dirichlet_moment, dirichlet_normalizer, dirichlet_pdf
from .dist import Dist, disintegrate
from .finset import FinMap, index_below, ms_map, multisets, row_extract


def _joint(alpha_rows: tuple[HyperParams, ...]) -> tuple[HyperParams, int]:
    """The row-major joint of a table and its row length; refuses an empty or ragged table."""
    if not alpha_rows:
        raise ValueError("the pseudo-count table has no rows")
    if any(row.n != alpha_rows[0].n for row in alpha_rows):
        raise ValueError("every row needs the same number of pseudo-counts")
    return HyperParams(tuple(a for row in alpha_rows for a in row.counts)), alpha_rows[0].n


def _lowered(betas: HyperParams, shift: int) -> HyperParams:
    return HyperParams(tuple(b - shift for b in betas.counts))


def shifted_prefactor(betas: HyperParams, shift: int) -> Fraction:
    """Constant turning the quotient form into the shifted form.

    d(betas)(y) / prod_i y_i^shift equals this exact rational times
    d(betas - shift)(y): the ratio of the two Dirichlet normalisers.  A
    total lowered below 1 raises ValueError.
    """
    return dirichlet_normalizer(betas) / dirichlet_normalizer(_lowered(betas, shift))


def pdf_factorization_check(alpha_rows: tuple[HyperParams, ...],
                            x: Dist) -> tuple[Fraction, Fraction, Fraction]:
    """The joint density and its two factorised forms at one point, exactly.

    x is a point of the open joint simplex, a full-support Dist over the
    row-major r*c table of alpha_rows, and `disintegrate` splits it.
    Returns (lhs, rhs_quotient, rhs_shifted): the joint density, the product
    (totals density / prod_i y_i^(c-1)) * row densities, and the same with
    the totals density shifted down by c-1 and the matching constant pulled
    out.  The law says all three are equal.
    """
    joint, cols = _joint(alpha_rows)
    betas = ms_map(FinMap.proj1(len(alpha_rows), cols), joint)
    shift = cols - 1
    lhs = dirichlet_pdf(joint, x)  # first, as it names a point of the wrong size
    totals, shares = disintegrate(x, cols)
    share_densities = math.prod(map(dirichlet_pdf, alpha_rows, shares.rows))
    jacobian = math.prod(y ** shift for y in totals.probs)
    rhs_quotient = dirichlet_pdf(betas, totals) / jacobian * share_densities
    rhs_shifted = (shifted_prefactor(betas, shift)
                   * dirichlet_pdf(_lowered(betas, shift), totals) * share_densities)
    return lhs, rhs_quotient, rhs_shifted


@dataclass(frozen=True)
class CandidateFit:
    """How well one local parameterisation matches the joint update's moments."""

    name: str
    totals_params: tuple[int, ...]
    failed: int  # how many of the audit's moment identities fail
    first_gap: Fraction  # joint minus factorised moment at the first failure, else 0

    @property
    def matches(self) -> bool:
        return not self.failed


@dataclass(frozen=True)
class LocalUpdateAudit:
    alpha_rows: tuple[HyperParams, ...]
    cell: tuple[int, int]
    identities: int  # joint exponent tables checked: every one of degree 1-2
    row_params: tuple[tuple[int, ...], ...]  # the updated rows, shared by both candidates
    candidates: tuple[CandidateFit, ...]
    shifted_constant: Fraction

    @property
    def matching_candidates(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates if c.matches)

    def format_report(self) -> str:
        lines = [
            f"local update audit: alpha rows={tuple(r.counts for r in self.alpha_rows)}, "
            f"incremented cell={self.cell}, joint moments of degree 1-2: {self.identities}",
            "pushforward total mass: 1.0 (a probability measure)",
        ]
        rows = " x ".join(f"Dir{p}" for p in self.row_params)
        for cand in self.candidates:
            verdict = "MATCH" if cand.matches else f"MISMATCH (first gap {cand.first_gap})"
            mass = self.shifted_constant if cand.name == "shifted" else 1
            lines.append(
                f"  candidate {cand.name}: totals Dir{cand.totals_params}, rows {rows}, "
                f"claimed mass {float(mass):g}, fails {cand.failed} of "
                f"{self.identities} moment identities -> {verdict}"
            )
        lines.append(
            f"  shifted-candidate constant: {self.shifted_constant} "
            f"= {float(self.shifted_constant):g}"
        )
        if self.shifted_constant != 1:
            lines.append(
                "  note: the constant differs from 1, but a pushforward of a "
                "probability measure has total mass 1, so the scaled shifted "
                "product cannot match it as a measure; the parameterisation the "
                f"exact moments support is: {', '.join(self.matching_candidates) or 'none'}"
            )
        return "\n".join(lines)


def local_update_audit(
    alpha_rows: tuple[HyperParams, ...], increment_cell: tuple[int, int]
) -> LocalUpdateAudit:
    """Exact audit of joint-versus-local conjugate updates.

    Updates the joint Dirichlet (the cell's pseudo-count incremented) and
    judges two candidate local parameterisations of its pushforward on
    every joint exponent table m of degree 1-2: the joint moment
    E[prod x_kl**m_kl] must equal the totals' moment at the row degrees
    (|m_k|)_k times each row's moment at m_k, every moment an exact
    `dirichlet_moment`.  The updated joint and each m are split alike.

    * direct: the totals and rows of the updated joint;
    * shifted: as above but with every total lowered by c-1, the form that
      comes with a proportionality constant.

    A candidate matches when no identity fails.  The constant attached to
    the shifted form is evaluated and reported alongside.  A cell that is
    not a pair of integers inside the table is refused, naming it.
    """
    joint, cols = _joint(alpha_rows)
    rows = len(alpha_rows)
    try:
        i, j = increment_cell
        cell = index_below(i, rows), index_below(j, cols)
    except ValueError:
        raise ValueError(f"cell {increment_cell} outside the {rows}x{cols} table") from None

    proj1 = FinMap.proj1(rows, cols)
    updated = joint.increment(cell[0] * cols + cell[1])
    direct, updated_rows = ms_map(proj1, updated), row_extract(updated, cols)
    # Per exponent table m: the joint moment, the row degrees and the rows' moments.
    sides = []
    for degree in (1, 2):
        for m in multisets(rows * cols, degree):
            row_moments = math.prod(dirichlet_moment(row, ms.counts)
                                    for row, ms in zip(updated_rows, row_extract(m, cols)))
            sides.append((dirichlet_moment(updated, m.counts), ms_map(proj1, m).counts, row_moments))

    candidates = []
    for name, totals_params in [("direct", direct), ("shifted", _lowered(direct, cols - 1))]:
        gaps = [lhs - dirichlet_moment(totals_params, degrees) * row_moments
                for lhs, degrees, row_moments in sides]
        failed = [gap for gap in gaps if gap]
        candidates.append(CandidateFit(name, totals_params.counts, len(failed),
                                       failed[0] if failed else Fraction(0)))

    return LocalUpdateAudit(
        alpha_rows=tuple(alpha_rows),
        cell=cell,
        identities=len(sides),
        row_params=tuple(row.counts for row in updated_rows),
        candidates=tuple(candidates),
        shifted_constant=shifted_prefactor(direct, cols - 1),
    )
