"""Learning conditional probability tables from count data.

Two learning maps sit at the core: normalising non-empty count vectors into
empirical distributions (frequentist), and updating integer pseudo-counts of
Dirichlet densities (Bayesian).  The package implements both together with
the exact-rational distribution layer they act on and numerical machinery
(simplex quadrature, seeded Dirichlet sampling) for checking their laws.
"""

from .bayes import (
    LiftedPredicate,
    batch_update,
    cont_condition,
    cont_validity,
    lift_predicate,
    validity_transfer_check,
)
from .dirichlet import (
    HyperParams,
    SimplexDensity,
    aggregate_params,
    dirichlet_density,
    dirichlet_mean,
    dirichlet_pdf_many,
    dirichlet_sample_many,
    gamma_nat,
    one_sum_check,
    simplex_quadrature,
)
from .dist import (
    Channel,
    Dist,
    JointDist,
    Predicate,
    condition,
    disintegrate,
    dist_map,
    pair_graph,
    state_transform,
    validity,
)
from .finset import (
    FinMap,
    JointMultiset,
    Multiset,
    ZeroRowError,
    ms_map,
    ms_map_full,
    ms_tensor,
    row_extract,
)
from .localsplit import (
    local_update_audit,
    pdf_factorization_check,
    split,
    unsplit,
)
from .mle import likelihood, mle, mle_decompose, monad_counterexample
from .network import (
    CountTable,
    DataError,
    GraphSpec,
    LearnedCPT,
    ingest_counts,
    learn_bayes,
    learn_mle,
)
from .rng import make_rng, substreams

__all__ = [
    "Channel",
    "CountTable",
    "DataError",
    "Dist",
    "FinMap",
    "GraphSpec",
    "HyperParams",
    "JointDist",
    "JointMultiset",
    "LearnedCPT",
    "LiftedPredicate",
    "Multiset",
    "Predicate",
    "SimplexDensity",
    "ZeroRowError",
    "aggregate_params",
    "batch_update",
    "condition",
    "cont_condition",
    "cont_validity",
    "dirichlet_density",
    "dirichlet_mean",
    "dirichlet_pdf_many",
    "dirichlet_sample_many",
    "disintegrate",
    "dist_map",
    "gamma_nat",
    "ingest_counts",
    "learn_bayes",
    "learn_mle",
    "lift_predicate",
    "likelihood",
    "local_update_audit",
    "make_rng",
    "mle",
    "mle_decompose",
    "monad_counterexample",
    "ms_map",
    "ms_map_full",
    "ms_tensor",
    "one_sum_check",
    "pair_graph",
    "pdf_factorization_check",
    "row_extract",
    "simplex_quadrature",
    "split",
    "state_transform",
    "substreams",
    "unsplit",
    "validity",
    "validity_transfer_check",
]
