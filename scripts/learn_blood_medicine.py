#!/usr/bin/env python3
"""Learn the blood-pressure/medicine tables both ways and print them.

Runs the frequentist and the Bayesian pipeline on the bundled example data
and shows the resulting tables side by side, exact fractions included.
"""

import sys
from pathlib import Path

from cptforge.network import GraphSpec, ingest_counts, learn_bayes, learn_mle

ROOT = Path(__file__).resolve().parent.parent


def show(cpts, mode):
    print(f"\n== {mode} ==")
    for cpt in cpts:
        parents = ",".join(cpt.parents) or "(root)"
        print(f"{cpt.node} | {parents}")
        for idx, dist in enumerate(cpt.dists):
            config = ",".join(str(o) for o in cpt.config_outcomes(idx)) or "-"
            probs = " ".join(f"{p.numerator}/{p.denominator}" for p in dist.probs)
            if cpt.mode == "bayes":
                alphas = ",".join(str(a) for a in cpt.weights[idx].tolist())
                print(f"  config {config}: posterior ({alphas}) mean {probs}")
            else:
                print(f"  config {config}: {probs}")


def main() -> int:
    graph = GraphSpec.load(ROOT / "data" / "blood_medicine_graph.txt")
    table = ingest_counts(ROOT / "data" / "blood_medicine.csv", graph)
    print(f"ingested {table.total()} observations over {graph.node_names}")
    show(learn_mle(table, graph), "frequentist (normalised counts)")
    show(learn_bayes(table, graph), "Bayesian (all-ones prior)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
