"""Seeded synthetic inputs for the benchmark: a graph, a count CSV and a prior.

Everything here is plain Python (``random.Random`` seeded with a string),
so the same shape and seed give byte-identical files on any machine with
the same Python, and nothing here imports cptforge.

Run ``python3 perfbench/gen.py --workload learn-tall --seed 1 --out DIR``
to write one instance by hand.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path


MAX_COUNT = 9  # counts are drawn uniformly from 1..MAX_COUNT


@dataclass(frozen=True)
class Shape:
    """The knobs of one synthetic network and its count data."""

    nodes: int
    arity: tuple[int, int]  # inclusive range
    parents: tuple[int, int]  # inclusive range for non-root nodes
    rows: int
    skew: float = 1.0  # outcome k has weight skew**k; below 1, configurations go unseen
    cells: int | None = None  # target family cells (configurations x arity), +-2%
    prior_every: int = 0  # give every k-th node an explicit prior; 0 for none


@dataclass(frozen=True)
class Instance:
    """One generated network: declared nodes, edges in file order, and data."""

    names: tuple[str, ...]
    arities: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (parent, child), in file order
    header: tuple[int, ...]  # CSV column order, as node indices
    columns: tuple[tuple[int, ...], ...]  # columns[node][row]
    counts: tuple[int, ...]
    prior: dict[int, tuple[int, ...]]

    def parents(self, node: int) -> tuple[int, ...]:
        """Parents in declared edge order, which the CLI uses for its output."""
        return tuple(p for p, c in self.edges if c == node)


def _family_cells(arities, edges) -> int:
    """Table cells summed over families: parent configurations x arity."""
    configs = list(arities)
    for p, c in edges:
        configs[c] *= arities[p]
    return sum(configs)


# The generated inputs of the learn workloads.
SHAPES = {
    "learn-tall": Shape(nodes=30, arity=(2, 4), parents=(1, 3), rows=100_000),
    "learn-wide": Shape(nodes=60, arity=(3, 4), parents=(0, 6), rows=3000,
                        skew=0.25, cells=100_000, prior_every=3),
}


def _draw_graph(rng: random.Random, shape: Shape):
    arities = [rng.randint(*shape.arity) for _ in range(shape.nodes)]
    edges = []
    for child in range(1, shape.nodes):
        k = min(child, rng.randint(*shape.parents))
        edges += [(p, child) for p in rng.sample(range(child), k)]
    rng.shuffle(edges)
    return arities, edges


def generate(shape: Shape, seed: int, label: str) -> Instance:
    """Draw one instance; `label` separates the streams of different workloads."""
    rng = random.Random(f"perfbench/{label}/{seed}")
    for _ in range(10_000):
        arities, edges = _draw_graph(rng, shape)
        if shape.cells is None:
            break
        if abs(_family_cells(arities, edges) - shape.cells) <= shape.cells // 50:
            break
    else:
        raise RuntimeError(f"no graph with about {shape.cells} cells for {label}")
    header = list(range(shape.nodes))
    rng.shuffle(header)
    columns = tuple(tuple(rng.choices(range(a), [shape.skew ** k for k in range(a)],
                                      k=shape.rows)) for a in arities)
    counts = tuple(rng.choices(range(1, MAX_COUNT + 1), k=shape.rows))
    prior = {}
    if shape.prior_every:
        for v in range(0, shape.nodes, shape.prior_every):
            prior[v] = tuple(rng.randint(1, 5) for _ in range(arities[v]))
    return Instance(tuple(f"X{i:02d}" for i in range(shape.nodes)), tuple(arities),
                    tuple(edges), tuple(header), columns, counts, prior)


def graph_text(inst: Instance) -> str:
    lines = [f"# {len(inst.names)} nodes, {len(inst.edges)} edges"]
    lines += [f"node {n} {a}" for n, a in zip(inst.names, inst.arities)]
    lines += [f"edge {inst.names[p]} {inst.names[c]}" for p, c in inst.edges]
    return "\n".join(lines) + "\n"


def csv_text(inst: Instance) -> str:
    cols = [inst.columns[v] for v in inst.header]
    lines = [f"# {len(inst.counts)} rows",
             ",".join(inst.names[v] for v in inst.header) + ",count"]
    lines += [",".join(map(str, cells)) for cells in zip(*cols, inst.counts)]
    return "\n".join(lines) + "\n"


def prior_text(inst: Instance) -> str:
    return "".join(f"{inst.names[v]} {' '.join(map(str, a))}\n"
                   for v, a in sorted(inst.prior.items()))


def write(inst: Instance, out: Path) -> dict[str, Path]:
    """Write graph.txt, data.csv and (if any) prior.txt; return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {"graph": out / "graph.txt", "data": out / "data.csv"}
    paths["graph"].write_text(graph_text(inst), encoding="utf-8")
    paths["data"].write_text(csv_text(inst), encoding="utf-8")
    if inst.prior:
        paths["prior"] = out / "prior.txt"
        paths["prior"].write_text(prior_text(inst), encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inst = generate(SHAPES[args.workload], args.seed, args.workload)
    for kind, path in write(inst, args.out).items():
        print(f"{kind}: {path}")
    print(f"family cells: {_family_cells(inst.arities, inst.edges)}")


if __name__ == "__main__":
    main()
