"""Learning conditional probability tables from count data.

Two learning maps sit at the core: normalising non-empty count vectors into
empirical distributions (frequentist), and updating integer pseudo-counts of
Dirichlet densities (Bayesian).  The package implements both together with
the exact-rational distribution layer they act on, and exact Dirichlet
density values, moments and integrals over the simplex.  A Dirichlet is
passed as its pseudo-counts, a `HyperParams`, a predicate lifted to the
simplex as the plain `Predicate`, and a point of the open simplex as a
full-support `Dist`: each fixes its object.  A joint point splits into its
totals and its rows by `disintegrate`, the one split, and `pair_graph`
inverts it.

``import cptforge`` is lazy: it imports neither numpy nor any submodule.  A
public name is imported from its submodule on first use (PEP 562), so the
CLI can configure numpy before anything loads it.
"""

import importlib
import sys
import types

# Each public name, once, under the submodule that defines it.
_EXPORTS = {
    "bayes": ("cont_condition", "cont_validity", "validity_transfer_check"),
    "dirichlet": ("HyperParams", "dirichlet_pdf", "gamma_nat", "one_sum_check"),
    "dist": ("Channel", "Dist", "Predicate", "condition", "disintegrate", "dist_map",
             "pair_graph", "state_transform", "validity"),
    "finset": ("FinMap", "Multiset", "ZeroRowError", "ms_map", "ms_tensor", "row_extract"),
    "localsplit": ("local_update_audit", "pdf_factorization_check"),
    "mle": ("likelihood", "mle", "mle_decompose", "monad_counterexample"),
    "network": ("CountTable", "DataError", "GraphSpec", "LearnedCPT", "ingest_counts",
                "learn_bayes", "learn_mle"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds each submodule on the package as it loads it;
    ``mle`` names both a submodule and its function, and the function wins."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
