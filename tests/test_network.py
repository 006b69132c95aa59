import csv
import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptforge import network, verify
from cptforge.cli import main
from cptforge.dirichlet import HyperParams
from cptforge.dist import Dist
from cptforge.finset import FinMap, Multiset, ms_map
from cptforge.mle import MonadCounterexample, mle, monad_counterexample
from cptforge.network import (
    CountTable,
    DataError,
    GraphSpec,
    LearnedCPT,
    ingest_counts,
    learn_bayes,
    learn_mle,
    load_prior,
    parse_prior,
    write_cpts,
)

from conftest import reverse_the_split_totals

EXPECTED = Path(__file__).parent / "expected"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestGraphSpec:
    def test_parse_round_trip(self, golden_graph_file):
        g = GraphSpec.load(golden_graph_file)
        assert g.node_names == ("Blood", "Medicine")
        assert g.arity("Medicine") == 3
        assert g.parents("Medicine") == ("Blood",)
        assert g.parents("Blood") == ()

    @pytest.mark.parametrize(
        "nodes,edges,message",
        [
            ((("A", 2), ("A", 3)), (), "duplicate node A"),
            ((("A", 2),), (("A", "B"),), "edge 'A' -> 'B' references an undeclared node"),
            ((("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("B", "C"), ("C", "A")),
             "graph has a directed cycle"),
            ((("A", 0),), (), "node A has arity 0"),
            ((("A", 2.9),), (), "node A has arity 2.9, not an integer"),
            ((("A", -1),), (), "node A has arity -1 outside"),
        ],
        ids=["duplicate-node", "undeclared-node", "cycle", "arity-0", "arity-fractional",
             "arity-negative"],
    )
    def test_constructor_rejects(self, nodes, edges, message):
        # Built in code, with no file lines, the message names no line.
        with pytest.raises(DataError, match=f"^{message}"):
            GraphSpec(nodes, edges)

    def test_parents_in_declared_edge_order(self):
        g = GraphSpec(
            (("A", 2), ("B", 3), ("C", 2)),
            (("B", "C"), ("A", "C")),
        )
        assert g.parents("C") == ("B", "A")

    @pytest.mark.parametrize("name", ["../../escaped", "a/b", "count", "1st", "-x", "\u00e9t\u00e9",
                                      "N" * 252])
    def test_node_name_rule(self, name):
        with pytest.raises(DataError, match="node name"):
            GraphSpec(((name, 2),), ())
        with pytest.raises(DataError, match="line 2: node name"):
            GraphSpec.parse(io.BytesIO(f"node A 2\nnode {name} 2\n".encode()))

    def test_node_names_that_follow_the_rule(self):
        longest = "N" * 251  # with ".csv", a 255-byte file name
        text = f"node _a 2\nnode X1.b-c 3\nnode counts 2\nnode {longest} 2\n"
        g = GraphSpec.parse(io.BytesIO(text.encode()))
        assert g.node_names == ("_a", "X1.b-c", "counts", longest)

    def test_parse_error_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            GraphSpec.parse(io.BytesIO(b"node A 2\nnode B\n"))
        with pytest.raises(DataError, match="line 1"):
            GraphSpec.parse(io.BytesIO(b"node A two\n"))

    @pytest.mark.parametrize(
        "arity,message",
        [
            ("two", "not an integer"),
            ("\u0663", "not an integer"),
            ("1_0", "not an integer"),
            ("+3", "not an integer"),
            ("3.0", "not an integer"),
            ("0", "outside 1..16777216"),
            ("-3", "outside 1..16777216"),
            ("16777217", "outside 1..16777216"),
            ("99999999999999999999999", "outside 1..16777216"),
            pytest.param("9" * 5000, "5000 digits is too long", id="5000-digits"),
        ],
    )
    def test_arity_grammar(self, arity, message):
        with pytest.raises(DataError, match=f"line 2: .*{message}"):
            GraphSpec.parse(io.BytesIO(f"node A 2\nnode B {arity}\n".encode()))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("node A 2\nnode B 2\n# again\nnode A 3\n", "line 4: duplicate node A"),
            ("node A 2\n\nedge A B\n", "line 3: edge 'A' -> 'B' references an undeclared node"),
            ("node A 2\nnode B 2\nedge A B\nedge B A\nedge A B\n",
             "line 5: duplicate edge A -> B"),
            # Line 5's edge is not on the cycle; lines 6-8 are.
            ("node A 2\nnode B 2\nnode C 2\nnode D 2\nedge A D\nedge A B\nedge B C\n"
             "edge C A\n", "line [678]: graph has a directed cycle: "),
            ("node A 2\nnode B 2\nedge B B\n", "line 3: graph has a directed cycle: B -> B"),
        ],
        ids=["duplicate-node", "undeclared-node", "duplicate-edge", "cycle", "self-loop"],
    )
    def test_structural_errors_name_their_line(self, text, message):
        with pytest.raises(DataError, match=f"^{message}"):
            GraphSpec.parse(io.BytesIO(text.encode()))

    def test_graph_without_node_lines_says_so(self):
        with pytest.raises(DataError, match="graph has no nodes: it needs a 'node"):
            GraphSpec.parse(io.BytesIO(b"# only a comment\n\n"))

    def test_largest_arity_is_accepted(self):
        graph = GraphSpec.parse(io.BytesIO(b"node A 16777216\n"))
        assert graph.arity("A") == network.MAX_FAMILY_CELLS


class TestIngest:
    def test_worked_example(self, golden_data_csv, golden_graph):
        table = ingest_counts(golden_data_csv, golden_graph)
        assert table.total() == 100
        assert table.marginal_counts(table.variables).counts == (10, 35, 25, 5, 10, 15)

    def test_short_file_reads_no_whole_chunk(self, golden_data_csv, golden_graph):
        # A chunk reads at most the bytes left in the file.  Reading a whole
        # CHUNK_BYTES chunk of these 6 lines peaked at 1.08 MB.
        tracemalloc.start()
        try:
            ingest_counts(golden_data_csv, golden_graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < network.CHUNK_BYTES

    @pytest.mark.parametrize(
        "text,records",
        [
            ("Blood,Medicine,count\n0,0,10\n0,0,5\n", {(0, 0): 15}),
            ("Medicine,Blood,count\n2,1,7\n", {(1, 2): 7}),
            ("# counts below\nBlood,Medicine,count\n\n0,1,4\n# done\n", {(0, 1): 4}),
            ("Blood,Medicine,count\n", {}),
            (" \t\x0c\nBlood,Medicine,count\n0,1,4\n \t\r\n", {(0, 1): 4}),
            ("Blood,Medicine,count\n0,1," + "0" * 40 + "7\n1,2,3\n", {(0, 1): 7, (1, 2): 3}),
            ("Blood,Medicine,count\n0,1,5\n1,2,345", {(0, 1): 5, (1, 2): 345}),
        ],
        ids=["duplicates", "permuted-header", "comments-and-blank-lines", "empty-data",
             "whitespace-only-lines", "line-longer-than-a-chunk", "last-line-without-newline"],
    )
    def test_accepted_layouts(self, tmp_path, golden_graph, monkeypatch, text, records):
        path = tmp_path / "counts.csv"
        path.write_bytes(text.encode())
        assert ingest_counts(path, golden_graph).records == records
        monkeypatch.setattr(network, "CHUNK_BYTES", 8)  # chunks that end inside lines
        assert ingest_counts(path, golden_graph).records == records

    def test_row_order_does_not_matter(self, tmp_path, golden_graph, golden_data_csv):
        lines = golden_data_csv.read_text(encoding="utf-8").strip().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
        a = ingest_counts(golden_data_csv, golden_graph)
        b = ingest_counts(path, golden_graph)
        assert a == b

    def test_concatenation_is_additive(self, tmp_path, golden_graph, golden_data_csv):
        extra = "0,0,3\n1,2,2\n"
        combined = tmp_path / "combined.csv"
        combined.write_text(
            golden_data_csv.read_text(encoding="utf-8") + extra, encoding="utf-8"
        )
        base = ingest_counts(golden_data_csv, golden_graph)
        total = ingest_counts(combined, golden_graph)
        for key, count in base.records.items():
            bump = {(0, 0): 3, (1, 2): 2}.get(key, 0)
            assert total.records[key] == count + bump

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0,3,10", "line 2.*outside"),
            ("0,1,-2", "line 2.*negative"),
            ("0,1,x", "line 2.*not an integer"),
            ("0,1", "line 2.*cells"),
            ("2,1,5", "line 2.*outside"),
            ("+1,1,5", "line 2.*not an integer"),
            ("1_0,1,5", "line 2.*not an integer"),
            ("\u0663,1,5", "line 2.*not an integer"),
            ("0,1,1.0", "line 2.*not an integer"),
            ('"1",1,5', "line 2.*not an integer"),
            pytest.param("0,1," + "9" * 5000, "line 2.*5000 digits is too long",
                         id="5000-digit-count"),
        ],
    )
    def test_bad_rows_report_line_numbers(self, tmp_path, golden_graph, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"Blood,Medicine,count\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            ingest_counts(path, golden_graph)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("Blood,Pressure,count\n0,0,1\n",
             "line 1: header column 'Pressure' is not a graph node"),
            # The header is split like a data line, where a quote is never accepted.
            ('"Blood",Medicine,count\n0,0,1\n',
             "line 1: header column '\"Blood\"' is not a graph node"),
            ("Blood,Blood,count\n0,0,1\n", "line 1: header has no column for node 'Medicine'"),
            ("# nothing\n", "data file has no header row"),
        ],
        ids=["unknown-name", "quoted-name", "no-header", "repeated-name"],
    )
    def test_bad_header_rejected(self, tmp_path, golden_graph, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
            ingest_counts(path, golden_graph)

    def test_missing_file(self, tmp_path, golden_graph):
        path = tmp_path / "nope.csv"
        with pytest.raises(DataError, match=f"^{re.escape(f'cannot read {path}: ')}No such file"):
            ingest_counts(path, golden_graph)


class TestLineRule:
    @pytest.mark.parametrize(
        "kind,text,message",
        [
            ("graph", "# note{}more\nnode A x\n", "line 2: arity 'x' is not an integer"),
            ("graph", "node A 2\n{}\t \nnode B x\n", "line 3: arity 'x' is not an integer"),
            ("prior", "Blood 2 2\n# note{}more\nMedicine 1 1\n",
             "line 3: Medicine needs 3 pseudo-counts, got 2"),
            ("prior", "Blood 2 2\n{}\t \nMedicine 1 1\n",
             "line 3: Medicine needs 3 pseudo-counts, got 2"),
        ],
        ids=["graph-comment", "graph-whitespace-only", "prior-comment", "prior-whitespace-only"],
    )
    @pytest.mark.parametrize("inside", ["\u2028", "\x0c", "\x85"], ids=["U+2028", "FF", "U+0085"])
    def test_only_newline_ends_a_line(self, tmp_path, golden_graph, kind, text, message, inside):
        # Each `inside` character ends a line for str.splitlines, never here:
        # the skipped line stays one line, and the error names the bad one.
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(text.format(inside).encode())
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            if kind == "graph":
                GraphSpec.load(path)
            else:
                load_prior(path, golden_graph)

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            ("graph", "node A 2\nnode B\u30003\n", "line 2: expected 'node <name> <arity>'"),
            ("graph", "node A 2\nnode B\x0c3\n", "line 2: expected 'node <name> <arity>'"),
            ("prior", "Blood 1 1\nMedicine\u30001 1 1\n", "line 2: unknown node 'Medicine\\u30001'"),
            ("prior", "Blood 1 1\nMedicine 1 1\x0c1\n", "line 2: pseudo-counts must be integers"),
        ],
        ids=["graph-U+3000", "graph-FF", "prior-U+3000", "prior-FF"],
    )
    def test_fields_split_at_spaces_and_tabs_only(self, tmp_path, golden_graph_file,
                                                  golden_data_csv, capsys, kind, text, message):
        # Like the blanks of a CSV cell: other whitespace is part of a field.
        files = {"graph": golden_graph_file, "prior": tmp_path / "prior.txt"}
        files["prior"].write_text("Blood 1 1\n", encoding="utf-8")
        files[kind] = tmp_path / f"bad-{kind}.txt"
        files[kind].write_text(text, encoding="utf-8")
        code = main(["learn", "--mode", "bayes", "--graph", str(files["graph"]),
                     "--data", str(golden_data_csv), "--prior", str(files["prior"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {files[kind]}: {message}")

    @pytest.mark.parametrize(
        "kind,head,message",
        [
            ("graph", b"node Blood 2\nnode Medicine x\n", "line 2: arity 'x' is not an integer"),
            ("prior", b"Blood 1 1\nMedicine 1 1\n", "line 2: Medicine needs 3 pseudo-counts, got 2"),
        ],
        ids=["graph", "prior"],
    )
    def test_bad_line_is_named_before_the_rest_is_read(self, tmp_path, golden_graph,
                                                       golden_graph_file, golden_data_csv,
                                                       capsys, kind, head, message):
        # 5 MB follow the bad line 2; the file is read a line at a time.
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(head + b"0,1,2,3,4,5,6,7,8,9\n" * 250_000)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
                GraphSpec.load(path) if kind == "graph" else load_prior(path, golden_graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        graph = path if kind == "graph" else golden_graph_file
        prior = ["--prior", str(path)] if kind == "prior" else []
        code = main(["learn", "--mode", "bayes", "--graph", str(graph),
                     "--data", str(golden_data_csv), "--out", str(tmp_path / "out"), *prior])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_tabs_and_a_trailing_cr_separate_fields(self, golden_graph):
        graph = io.BytesIO(b"node\tBlood  2\r\n node Medicine\t3 \r\nedge Blood Medicine\n")
        assert GraphSpec.parse(graph) == golden_graph
        prior = io.BytesIO(b"Medicine\t1 2\t 3\r\n")
        assert parse_prior(prior, golden_graph) == {"Medicine": (1, 2, 3)}


class TestLearnMle:
    def test_single_node_graph(self):
        graph = GraphSpec((("X", 3),), ())
        table = CountTable.from_records(("X",), (3,), {(0,): 2, (1,): 3, (2,): 5})
        (cpt,) = learn_mle(table, graph)
        assert cpt.dists[0].probs == (F(1, 5), F(3, 10), F(1, 2))

    def test_zero_parent_configuration_aborts_with_names(self, golden_graph):
        table = CountTable.from_records(
            ("Blood", "Medicine"), (2, 3), {(0, 0): 10, (0, 2): 5}
        )
        with pytest.raises(DataError, match="Blood=1"):
            learn_mle(table, golden_graph)

    def test_empty_table_aborts(self, golden_graph):
        table = CountTable.from_records(("Blood", "Medicine"), (2, 3), {})
        with pytest.raises(DataError):
            learn_mle(table, golden_graph)

    def test_chain_reconstruction_on_factorising_data(self):
        # Build counts that factorise exactly through a chain A -> B -> C,
        # then check the learned tables reproduce the generators and the
        # empirical joint equals the chain reconstruction, all exactly.
        graph = GraphSpec(
            (("A", 2), ("B", 2), ("C", 2)), (("A", "B"), ("B", "C"))
        )
        omega_a = (F(1, 4), F(3, 4))
        chan_b = ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)))
        chan_c = ((F(1, 5), F(4, 5)), (F(2, 5), F(3, 5)))

        joint = {}
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    joint[(a, b, c)] = omega_a[a] * chan_b[a][b] * chan_c[b][c]
        denominator = math.lcm(*(p.denominator for p in joint.values()))
        records = {k: int(p * denominator) for k, p in joint.items()}
        table = CountTable.from_records(("A", "B", "C"), (2, 2, 2), records)

        cpts = {c.node: c for c in learn_mle(table, graph)}
        assert cpts["A"].dists[0].probs == omega_a
        assert tuple(d.probs for d in cpts["B"].dists) == chan_b
        assert tuple(d.probs for d in cpts["C"].dists) == chan_c

        empirical = mle(table.marginal_counts(table.variables))
        reconstructed = []
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    reconstructed.append(omega_a[a] * chan_b[a][b] * chan_c[b][c])
        assert empirical.probs == tuple(reconstructed)

    def test_two_parent_family_row_major_order(self):
        graph = GraphSpec(
            (("A", 2), ("B", 2), ("C", 2)), (("A", "C"), ("B", "C"))
        )
        records = {}
        value = 1
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    records[(a, b, c)] = value
                    value += 1
        table = CountTable.from_records(("A", "B", "C"), (2, 2, 2), records)
        cpts = {c.node: c for c in learn_mle(table, graph)}
        cpt = cpts["C"]
        assert cpt.parents == ("A", "B")
        # Parent configuration index 2 is (A=1, B=0): counts 5 and 6.
        assert cpt.config_outcomes(2) == (1, 0)
        assert cpt.dists[2].probs == (F(5, 11), F(6, 11))


    @pytest.mark.parametrize("learn", [learn_mle, learn_bayes], ids=["mle", "bayes"])
    def test_table_arity_must_match_the_graph(self, learn):
        # A count table built with other arities than the graph's is refused
        # before counting, naming the node; an extra variable is marginalised out.
        graph = GraphSpec((("A", 2), ("B", 2)), (("A", "B"),))
        wider = CountTable.from_records(("A", "B"), (3, 2), {(0, 0): 1, (2, 1): 3})
        with pytest.raises(DataError, match="^node A has arity 2 in the graph but 3 in the count table$"):
            learn(wider, graph)
        narrower = CountTable.from_records(("A", "B"), (2, 1), {(0, 0): 1, (1, 0): 3})
        with pytest.raises(DataError, match="^node B has arity 2 in the graph but 1 in the count table$"):
            learn(narrower, graph)
        extra = CountTable.from_records(("A", "B", "C"), (2, 2, 4),
                                        {(0, 0, 3): 1, (1, 1, 0): 3, (0, 1, 1): 2, (1, 0, 2): 1})
        assert [c.node for c in learn(extra, graph)] == ["A", "B"]


class TestLearnBayes:
    def test_zero_data_keeps_prior(self, golden_graph):
        table = CountTable.from_records(("Blood", "Medicine"), (2, 3), {})
        cpts = {c.node: c for c in learn_bayes(table, golden_graph)}
        assert cpts["Blood"].posteriors[0].counts == (1, 1)
        assert cpts["Medicine"].dists[0] == Dist((F(1, 3),) * 3)

    def test_never_aborts_on_missing_configuration(self, golden_graph):
        table = CountTable.from_records(("Blood", "Medicine"), (2, 3), {(0, 0): 10})
        cpts = {c.node: c for c in learn_bayes(table, golden_graph)}
        assert cpts["Medicine"].posteriors[1].counts == (1, 1, 1)

    def test_custom_prior(self, golden_table, golden_graph):
        cpts = {
            c.node: c
            for c in learn_bayes(golden_table, golden_graph, {"Blood": (5, 10)})
        }
        assert cpts["Blood"].posteriors[0].counts == (75, 40)

    def test_prior_validation(self, golden_table, golden_graph):
        with pytest.raises(DataError):
            learn_bayes(golden_table, golden_graph, {"Nope": (1, 1)})
        with pytest.raises(ValueError):
            learn_bayes(golden_table, golden_graph, {"Blood": (1, 0)})


class TestPriorParsing:
    def test_parse(self, golden_graph):
        priors = parse_prior(io.BytesIO(b"# p\nBlood 2 2\nMedicine 1 1 1\n"), golden_graph)
        assert priors == {"Blood": (2, 2), "Medicine": (1, 1, 1)}

    @pytest.mark.parametrize(
        "text,message",
        [
            ("Pressure 1 1\n", "unknown node"),
            ("Blood 1\n", "needs 2"),
            ("Blood 1 0\n", ">= 1"),
            ("Blood 1 1\nBlood 2 2\n", "duplicate"),
            ("Blood one 1\n", "integers"),
            ("Blood +1 1_0\n", "line 1: pseudo-counts must be integers"),
            ("Blood 1 \u0663\n", "line 1: pseudo-counts must be integers"),
            ("Blood -1 1\n", "line 1: pseudo-counts must be >= 1"),
            pytest.param("# huge\nBlood 1 " + "9" * 5000 + "\n", "line 2: .*5000 digits is too long",
                         id="5000-digits"),
        ],
    )
    def test_errors(self, golden_graph, text, message):
        with pytest.raises(DataError, match=message):
            parse_prior(io.BytesIO(text.encode()), golden_graph)


class TestOutputFiles:
    def test_format_fraction(self, tmp_path):
        # Each cell is its weight over the row total, gcd-reduced: 0 is 0/1, a whole row 1/1.
        weights = np.array([[7, 3], [0, 5], [6, 27], [2**70, 2**71]], dtype=object)
        write_cpts([LearnedCPT("A", ("P",), (4,), 2, weights, "mle")], tmp_path)
        assert (tmp_path / "A.csv").read_bytes() == (
            b"P,p0,p1\r\n0,7/10,3/10\r\n1,0/1,1/1\r\n2,2/11,9/11\r\n3,1/3,2/3\r\n")

    def test_mle_output(self, tmp_path, golden_table, golden_graph):
        paths = write_cpts(learn_mle(golden_table, golden_graph), tmp_path)
        assert sorted(p.name for p in paths) == ["Blood.csv", "Medicine.csv"]
        assert read_csv(tmp_path / "Blood.csv") == [["p0", "p1"], ["7/10", "3/10"]]
        assert read_csv(tmp_path / "Medicine.csv") == [
            ["Blood", "p0", "p1", "p2"],
            ["0", "1/7", "1/2", "5/14"],
            ["1", "1/6", "1/3", "1/2"],
        ]

    def test_bayes_output(self, tmp_path, golden_table, golden_graph):
        write_cpts(learn_bayes(golden_table, golden_graph), tmp_path)
        assert read_csv(tmp_path / "Blood.csv") == [
            ["a0", "a1", "mean0", "mean1"],
            ["71", "31", "71/102", "31/102"],
        ]
        rows = read_csv(tmp_path / "Medicine.csv")
        assert rows[0] == ["Blood", "a0", "a1", "a2", "mean0", "mean1", "mean2"]
        assert rows[1] == ["0", "11", "36", "26", "11/73", "36/73", "26/73"]
        # means are rendered gcd-reduced: 6/33 -> 2/11, 11/33 -> 1/3
        assert rows[2] == ["1", "6", "11", "16", "2/11", "1/3", "16/33"]

    @staticmethod
    def two_node_args(tmp_path, out):
        graph, data = tmp_path / "graph.txt", tmp_path / "data.csv"
        graph.write_text("node A 2\nnode B 2\n", encoding="utf-8")
        data.write_text("A,B,count\n0,0,1\n1,1,2\n", encoding="utf-8")
        return ["learn", "--mode", "mle", "--graph", str(graph), "--data", str(data),
                "--out", str(out)]

    @staticmethod
    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
                for p in root.rglob("*")}

    def test_failed_write_leaves_out_as_it_was(self, tmp_path, capsys):
        # B.csv cannot replace a directory; A.csv, moved in first, is taken back.
        out = tmp_path / "out"
        (out / "B.csv").mkdir(parents=True)
        (out / "B.csv" / "keep").write_text("x", encoding="utf-8")
        assert main(self.two_node_args(tmp_path, out)) == 2
        err = capsys.readouterr().err
        # The message names the table in --out, not the staging directory.
        assert err.startswith(f"error: cannot write {out / 'B.csv'}: ") and ".cpt-forge-" not in err
        assert self.tree(out) == {"B.csv": None, "B.csv/keep": b"x"}

    def test_failed_write_names_the_table_it_could_not_move(self, tmp_path, capsys):
        # A.csv is written first and moved first, so its failure is not the last write's.
        out = tmp_path / "out"
        (out / "A.csv").mkdir(parents=True)
        assert main(self.two_node_args(tmp_path, out)) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / 'A.csv'}: Is a directory\n"
        assert self.tree(out) == {"A.csv": None}

    def test_failed_write_restores_the_files_it_replaced(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "B.csv").mkdir(parents=True)
        (out / "A.csv").write_text("old\n", encoding="utf-8")
        before = self.tree(out)
        assert main(self.two_node_args(tmp_path, out)) == 2
        assert self.tree(out) == before

    def test_failed_write_removes_the_directories_it_created(
        self, tmp_path, monkeypatch, capsys
    ):
        write_cpt = network._write_cpt
        calls = []

        def failing(cpt, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_cpt(cpt, path)

        monkeypatch.setattr(network, "_write_cpt", failing)
        assert main(self.two_node_args(tmp_path, tmp_path / "a" / "out")) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not (tmp_path / "a").exists()

    def test_rewrite_replaces_tables_and_keeps_other_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "A.csv").write_text("old\n", encoding="utf-8")
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        assert main(self.two_node_args(tmp_path, out)) == 0
        tree = self.tree(out)
        assert sorted(tree) == ["A.csv", "B.csv", "notes.txt"]
        assert tree["A.csv"] == b"p0,p1\r\n1/3,2/3\r\n"
        assert tree["notes.txt"] == b"mine"


class TestCli:
    def test_learn_bayes_with_prior_file(self, tmp_path, golden_graph_file, golden_data_csv):
        prior = tmp_path / "prior.txt"
        prior.write_text("Blood 2 2\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["learn", "--mode", "bayes", "--graph", str(golden_graph_file),
             "--data", str(golden_data_csv), "--out", str(out), "--prior", str(prior)]
        )
        assert code == 0
        assert read_csv(out / "Blood.csv")[1][:2] == ["72", "32"]

    def test_prior_file_in_mle_mode_is_input_error(self, tmp_path, capsys):
        # Named before any file is read: graph and data do not exist either.
        code = main(["learn", "--mode", "mle", "--graph", str(tmp_path / "g.txt"),
                     "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "out"),
                     "--prior", str(tmp_path / "nonexistent")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --prior {tmp_path / 'nonexistent'}: ") and "--mode mle" in err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file_is_input_error(self, tmp_path, golden_graph_file, capsys):
        code = main(
            ["learn", "--mode", "mle", "--graph", str(golden_graph_file),
             "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == (f"error: cannot read {tmp_path / 'nope.csv'}: "
                                           "No such file or directory\n")

    def test_zero_configuration_is_input_error_in_mle_mode(
        self, tmp_path, golden_graph_file, capsys
    ):
        data = tmp_path / "sparse.csv"
        data.write_text("Blood,Medicine,count\n0,0,10\n", encoding="utf-8")
        out = tmp_path / "out"
        args = ["--graph", str(golden_graph_file), "--data", str(data), "--out", str(out)]
        assert main(["learn", "--mode", "mle"] + args) == 2
        assert "Blood=1" in capsys.readouterr().err
        assert main(["learn", "--mode", "bayes"] + args) == 0

    @pytest.mark.parametrize("args", [
        "golden --seed 42", "exact --seed 42", "stochastic --seed 42", "all --seed 42",
    ], ids=["golden", "exact", "stochastic", "all"])
    def test_verify_stdout_is_pinned(self, args, capsys):
        # Every exact value and every sampled statistic is in the report, so
        # a changed law, Philox stream or seed offset changes this output.
        # `all` runs its array laws in a forked child on Linux, and its report
        # is the three suites' check lines in turn, under one summary.
        pins = {"golden": "verify-golden-seed42.txt", "exact": "verify-exact-seed42.txt",
                "stochastic": "verify-stochastic-seed42.txt"}
        suite = args.split()[0]
        assert main(["verify", "--suite", *args.split()]) == 0
        reports = [(EXPECTED / pins[name]).read_text(encoding="utf-8")
                   for name in pins if suite in (name, "all")]
        if suite == "all":
            reports = [r.rpartition("SUMMARY: ")[0] for r in reports]
            reports.append("SUMMARY: 31 passed, 0 failed (suite=all, seed=42, resolution=400)\n")
        assert capsys.readouterr().out == "".join(reports)

    def test_verify_failed_law_exits_one(self, monkeypatch, capsys):
        # Both routes of the flatten-order counterexample made equal: the law fails.
        route = monad_counterexample().flatten_then_normalize
        monkeypatch.setattr(verify, "monad_counterexample",
                            lambda: MonadCounterexample(route, route))
        assert main(["verify", "--suite", "exact"]) == 1
        out = capsys.readouterr().out
        probs = "(Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))"
        assert f"[FAIL] exact/flatten-order-counterexample: {probs} != {probs}\n" in out
        assert "[PASS] exact/pushforward-functoriality: " in out
        assert "SUMMARY: 11 passed, 1 failed (suite=exact, seed=42, resolution=400)" in out
        # Under `all` a stochastic law fails too, in the parent beside the
        # exact half.
        reverse_the_split_totals(monkeypatch)
        assert main(["verify", "--suite", "all"]) == 1
        out = capsys.readouterr().out
        assert f"[FAIL] exact/flatten-order-counterexample: {probs} != {probs}\n" in out
        quotient = "119803360146773537319550036475904/128321067709554571068395314290725"
        gap = ("[FAIL] stochastic/split-factorisation: joint density "
               f"193535654506178528919158784000/5132842708382182842735812571629 != {quotient} "
               f"or {quotient} at (3, 6, 7, 8, 2, 1)\n")
        assert gap in out
        assert "SUMMARY: 29 passed, 2 failed (suite=all, seed=42, resolution=400)" in out

    @pytest.mark.parametrize("value", ["-1", "-100"])
    def test_verify_seed_below_zero_is_input_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "stochastic", "--seed", value])
        assert exc.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["graph", "data", "prior"])
    def test_non_utf8_file_is_input_error(
        self, tmp_path, run_python, golden_graph_file, golden_data_csv, bad
    ):
        files = {"graph": golden_graph_file, "data": golden_data_csv,
                 "prior": tmp_path / "prior.txt"}
        files["prior"].write_text("Blood 2 2\n", encoding="utf-8")
        files[bad] = tmp_path / f"bad-{bad}.txt"
        files[bad].write_bytes(b"# fine\nBlood \xff\n")
        proc = run_python("-m", "cptforge", "learn", "--mode", "bayes",
                          "--graph", str(files["graph"]), "--data", str(files["data"]),
                          "--prior", str(files["prior"]), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"bad-{bad}.txt: line 2: not valid UTF-8" in proc.stderr

    @pytest.mark.parametrize(
        "bad,text,message",
        [
            ("graph", "node A 2\nnode A 2\n", "line 2: duplicate node A"),
            ("data", "A,count\n0,x\n", "line 2: count 'x' is not an integer"),
            ("prior", "A 1 x\n", "line 1: pseudo-counts must be integers"),
            # A 1 MB token T...T is quoted by its first 12 and last 13 characters.
            ("graph", "node A 2\nnode A {}\n", "line 2: arity {} is not an integer"),
            ("graph", "node A 2\nnode -{} 2\n", "line 2: node name '-TTTTTTTTTTT...TTTTTTTTTTTTT' "
             "does not match [A-Za-z_][A-Za-z0-9_.-]*"),
            # A name that follows the rule but could not name its table's file.
            ("graph", "node A 2\nnode {} 2\n", "line 2: node name {} is longer than 251 bytes"),
            ("graph", "node A 2\nedge A {}\n",
             "line 2: edge 'A' -> {} references an undeclared node"),
            ("graph", "node A 2\n{}\n", "line 2: expected 'node <name> <arity>' or "
             "'edge <parent> <child>', got {}"),
            ("data", "A,{},count\n0,1\n", "line 1: header must list every node plus a final "
             "'count' column, got ['A', {}, 'count']"),
            ("data", "{},count\n0,1\n", "line 1: header column {} is not a graph node"),
            ("data", "A,count\n{},1\n", "line 2: outcome {} for A is not an integer"),
            ("data", "A,count\n0,{}\n", "line 2: count {} is not an integer"),
            ("prior", "{} 1 2\n", "line 1: unknown node {}"),
        ],
        ids=["graph", "data", "prior", "long-arity", "long-node-name", "long-valid-node-name",
             "long-edge", "long-graph-line", "long-header", "long-header-column", "long-outcome",
             "long-count", "long-prior-node"],
    )
    def test_input_error_names_the_file_once(self, tmp_path, capsys, bad, text, message):
        files = {"graph": "node A 2\n", "data": "A,count\n0,1\n", "prior": "A 1 2\n"}
        files[bad] = text.format("T" * (1 << 20))
        message = message.format("'TTTTTTTTTTTT...TTTTTTTTTTTTT'")
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(content, encoding="utf-8")
        code = main(["learn", "--mode", "bayes", "--graph", str(paths["graph"]),
                     "--data", str(paths["data"]), "--prior", str(paths["prior"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[bad]}: {message}\n"

    @pytest.mark.parametrize("bad", ["graph", "data", "prior"])
    @pytest.mark.parametrize("how,reason", [("missing", "No such file or directory"),
                                            ("directory", "Is a directory")])
    def test_unreadable_input_is_input_error(self, tmp_path, golden_graph_file, golden_data_csv,
                                             capsys, bad, how, reason):
        files = {"graph": golden_graph_file, "data": golden_data_csv,
                 "prior": tmp_path / "prior.txt"}
        files["prior"].write_text("Blood 2 2\n", encoding="utf-8")
        files[bad] = tmp_path / bad
        if how == "directory":
            files[bad].mkdir()
        code = main(["learn", "--mode", "bayes", "--graph", str(files["graph"]),
                     "--data", str(files["data"]), "--prior", str(files["prior"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot read {files[bad]}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_node_name_cannot_escape_out(self, tmp_path, golden_data_csv, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("node ../escaped 2\n", encoding="utf-8")
        out = tmp_path / "a" / "out"
        code = main(["learn", "--mode", "bayes", "--graph", str(graph),
                     "--data", str(golden_data_csv), "--out", str(out)])
        assert code == 2
        assert "line 1: node name" in capsys.readouterr().err
        assert not (tmp_path / "a" / "escaped.csv").exists()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["learn", "verify"])
    def test_closed_stdout_is_an_error_line_and_exit_two(
        self, tmp_path, golden_graph_file, golden_data_csv, command, unbuffered
    ):
        # As in `cpt-forge learn ... | head -1`: the reader is gone before the
        # first line is written.
        args = {"learn": ["learn", "--mode", "mle", "--graph", str(golden_graph_file),
                          "--data", str(golden_data_csv), "--out", str(tmp_path / "out")],
                "verify": ["verify", "--suite", "golden"]}[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cptforge", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output was closed before the report was written\n"

    def test_console_entry_point(self, tmp_path, run_python, golden_graph_file, golden_data_csv):
        # `python -m cptforge` leaves through os._exit once both streams are
        # flushed: every line is still written, and argparse's exit 2 stands.
        out = tmp_path / "out"
        proc = run_python("-m", "cptforge", "learn", "--mode", "mle", "--graph",
                          str(golden_graph_file), "--data", str(golden_data_csv), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {out / 'Blood.csv'}\nwrote {out / 'Medicine.csv'}\n"
        assert (out / "Medicine.csv").exists()
        usage = run_python("-m", "cptforge", "learn", "--mode", "neither")
        assert usage.returncode == 2
        assert "invalid choice: 'neither'" in usage.stderr and "Traceback" not in usage.stderr


class TestFamilyCellCap:
    @staticmethod
    def star(n_parents):
        """C with `n_parents` arity-4 parents: the family's names, the graph
        file's text, and the error naming the edge that takes it over the cap."""
        names = tuple(f"P{i:02d}" for i in range(n_parents)) + ("C",)
        text = ("".join(f"node {n} 4\n" for n in names)
                + "".join(f"edge {p} C\n" for p in names[:-1]))
        # 4 * 4**12 cells first passes 2**24 at the 12th edge.
        error = (f"line {n_parents + 13}: family table over {', '.join(names)} "
                 f"needs {4 ** (n_parents + 1)} cells, more than the cap of 16777216")
        return names, text, error

    @pytest.mark.parametrize("n_parents", [20, 40])  # 2^42 cells; 2^82, past intp
    def test_cap_fires_before_allocation(self, n_parents):
        names, text, error = self.star(n_parents)
        table = CountTable.from_records(names, (4,) * len(names), {(0,) * len(names): 1})
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
                GraphSpec.parse(io.BytesIO(text.encode()))
            with pytest.raises(DataError, match=r"over P00, .*, C needs \d+ cells.*cap"):
                table.marginal_counts(names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_an_input_error(self, tmp_path, capsys):
        # Refused when the graph is read: the data file is never opened.
        _, text, error = self.star(20)
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text(text, encoding="utf-8")
        code = main(["learn", "--mode", "bayes", "--graph", str(graph_file),
                     "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {graph_file}: {error}\n"


@st.composite
def tables_with_family(draw):
    """Rows with repeats and counts past int64, and some variables in any order."""
    arities = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    variables = tuple(f"V{i}" for i in range(len(arities)))
    outcome = st.tuples(*(st.integers(0, a - 1) for a in arities))
    rows = draw(st.lists(st.sampled_from(draw(st.lists(outcome, min_size=1, max_size=4))),
                         max_size=12))
    count = st.one_of(st.integers(0, 9), st.integers(2**62, 2**70))
    counts = draw(st.lists(count, min_size=len(rows), max_size=len(rows)))
    family = draw(st.permutations(variables))[: draw(st.integers(1, len(variables)))]
    return variables, arities, rows, counts, family


def blanked(numbers):
    blanks = st.sampled_from(["", "", "", "", " ", "\t", " \t"])
    return st.builds("{}{}{}".format, blanks, numbers, blanks)


OUTCOME_CELLS = blanked(st.sampled_from(["0", "1", "00", "01"]))
COUNT_CELLS = blanked(st.one_of(
    st.sampled_from(["0", "1", "7", "10"]),
    st.integers(0, 10**25).map(str),
    # 18 and 19 digits, around 2**63 - 1
    st.sampled_from(["999999999999999999", "0000000000000000001", "9223372036854775807",
                     "9223372036854775808", "9999999999999999999"]),
))
BAD_CELLS = blanked(st.sampled_from(
    ["", "2", "3", "300", "-1", "+1", "\u0663", "1 2", "1\t2", "#", "1#", "1\r", "1\r2", "\r1"]))
JUNK_LINES = st.one_of(st.sampled_from(["", "# 1,2,3", " \t", "\r", "\u3000", "\u3000# x"]),
                       st.text(alphabet="0123456789, \t\r#-+\u0663", max_size=10))


@st.composite
def count_files(draw):
    """Golden-graph count files over digits, ',', blanks, '\\r', '#', signs and
    a non-ASCII digit: rows of three cells with up to two faults (a bad
    cell, a cell added or dropped, a skipped or junk line), either line
    end, a final newline or none, and now and then a byte that is not UTF-8."""
    rows = draw(st.lists(st.tuples(OUTCOME_CELLS, OUTCOME_CELLS, COUNT_CELLS).map(list),
                         max_size=10))
    for fault in draw(st.lists(st.sampled_from(["cell", "add", "drop", "line"]), max_size=2)):
        if fault == "line":
            rows.insert(draw(st.integers(0, len(rows))), [draw(JUNK_LINES)])
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            at = draw(st.integers(0, len(row) - 1))
            if fault == "cell":
                row[at] = draw(BAD_CELLS)
            elif fault == "add":
                row.insert(at, draw(st.one_of(OUTCOME_CELLS, COUNT_CELLS)))
            elif len(row) > 1:
                del row[at]
    header = draw(st.sampled_from(["Blood,Medicine,count", "Medicine,Blood,count"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([header, *map(",".join, rows)]) + draw(st.sampled_from([eol, ""]))
    data = text.encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def row_major(outcome, arities):
    index = 0
    for o, a in zip(outcome, arities):
        index = index * a + o
    return index


def unravel(index, arities):
    outcome = []
    for a in reversed(arities):
        outcome.append(index % a)
        index //= a
    return tuple(reversed(outcome))


class TestCountExactness:
    """The array count pipeline against plain-Python counting, with zero tolerance."""

    @given(tables_with_family())
    def test_family_tables_are_pushforwards_of_the_joint(self, case):
        variables, arities, rows, counts, family = case
        dtype = np.int64 if max(counts, default=0) < 2**63 else object
        table = CountTable(variables, arities,
                           np.array(rows, dtype=np.uint8).reshape(len(rows), len(arities)),
                           np.array(counts, dtype=dtype))
        joint = [0] * math.prod(arities)
        for outcome, c in zip(rows, counts):
            joint[row_major(outcome, arities)] += c
        assert table.marginal_counts(variables) == Multiset(tuple(joint))
        assert table.total() == sum(counts)

        positions = [variables.index(v) for v in family]
        dims = [arities[p] for p in positions]
        projection = FinMap(
            tuple(row_major([unravel(x, arities)[p] for p in positions], dims)
                  for x in range(len(joint))),
            math.prod(dims),
        )
        assert table.marginal_counts(family) == ms_map(projection, Multiset(tuple(joint)))

        records = {}
        for outcome, c in zip(rows, counts):
            records[outcome] = records.get(outcome, 0) + c
        assert dict(table.records) == records
        assert table == CountTable.from_records(variables, arities, records)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: CountTable.from_records(("Blood", "Medicine"), (2, 3), {(1, 3): 1}),
             "outcome 3 for Medicine outside 0..2"),
            (lambda: CountTable(("Blood", "Medicine"), (2, 3),
                                np.array([[0, 2], [2, 0]], dtype=np.uint8), np.array([1, 1])),
             "outcome 2 for Blood outside 0..1"),
            (lambda: CountTable(("Blood", "Medicine"), (2, 3), np.array([[1, -1]]), np.array([1])),
             "outcome -1 for Medicine outside 0..2"),
            (lambda: CountTable.from_records(("A",), (2,), {(0,): 2.5, (1,): 1}),
             "count 2.5 at index 0 is not an integer"),
            (lambda: CountTable.from_records(("A",), (2,), {(1.7,): 1}),
             "outcome 1.7 at index 0 is not an integer"),
            (lambda: CountTable.from_records(("A",), (2,), {(0,): 3, (1,): -1}),
             "negative count -1 at index 1"),
            (lambda: CountTable(("A",), (2,), np.array([[0.9]]), np.array([1.5])),
             "outcome 0.9 at index 0 is not an integer"),
        ],
        ids=["from_records", "constructor", "negative", "fractional-count",
             "fractional-outcome", "negative-count", "float-arrays"],
    )
    def test_outcome_outside_its_arity_is_refused_when_built(self, build, message):
        # Family indices are built without a bounds check, so the table checks;
        # a value that is not a non-negative integer is refused, not truncated.
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @staticmethod
    def write(path, lines, header="Blood,Medicine,count"):
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return path

    def test_pieces_sum_to_the_one_shot_table(self, tmp_path, golden_graph, monkeypatch):
        rng = random.Random(4)
        rows = [f"{rng.randrange(2)},{rng.randrange(3)},{rng.randrange(10)}"
                for _ in range(300)]
        rows[17], rows[150] = "# a comment", ""
        whole = ingest_counts(self.write(tmp_path / "whole.csv", rows), golden_graph)
        for trial in range(5):
            rng.shuffle(rows)  # so no table may depend on row order
            cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(1, 8)))
            bounds = list(zip([0, *cuts], [*cuts, len(rows)]))
            pieces = [ingest_counts(self.write(tmp_path / f"{trial}-{a}.csv", rows[a:b]),
                                    golden_graph) for a, b in bounds]
            summed = pieces[0].marginal_counts(whole.variables)
            for piece in pieces[1:]:
                summed = summed + piece.marginal_counts(whole.variables)
            assert summed == whole.marginal_counts(whole.variables)
        monkeypatch.setattr(network, "CHUNK_BYTES", 36)
        assert ingest_counts(tmp_path / "whole.csv", golden_graph) == whole

    def test_file_longer_than_one_chunk(self, tmp_path, golden_graph):
        rng = random.Random(5)
        chunk_lines = network.CHUNK_BYTES // len("0,0,0\n")
        rows = [(rng.randrange(2), rng.randrange(3), rng.randrange(10))
                for _ in range(chunk_lines + 1000)]
        lines = [f"{a},{b},{c}" for a, b, c in rows]
        lines.insert(chunk_lines + 100, "# a comment in the second chunk")
        expected = {}
        for a, b, c in rows:
            expected[(a, b)] = expected.get((a, b), 0) + c
        table = ingest_counts(self.write(tmp_path / "long.csv", lines), golden_graph)
        assert table == CountTable.from_records(("Blood", "Medicine"), (2, 3), expected)
        assert table.total() == sum(c for _, _, c in rows)

    @pytest.mark.parametrize("bad,message", [("1,3,1", "outside"), ("1,+2,1", "not an integer")])
    def test_bad_line_in_a_later_chunk_is_named(self, tmp_path, golden_graph, bad, message):
        # The first chunk is read in bulk, in bulk again without its skipped
        # lines, or line by line (a count past 18 digits); each path must
        # count every line it read.
        for head in ([], ["# note", "", " \t\r"], [f"0,1,{10**19}"]):
            lines = head + ["0,1,2"] * (network.CHUNK_BYTES // len("0,1,2\n") + 1)
            lines += ["0,1,2", "# a comment before the bad line", "0,1,2", bad, "0,1,2"]
            path = self.write(tmp_path / "bad.csv", lines)
            bad_line = lines.index(bad) + 2  # after the header
            with pytest.raises(DataError, match=f"line {bad_line}: .*{message}"):
                ingest_counts(path, golden_graph)

    def test_repeated_rows_sum_exactly_across_chunks(self, tmp_path, golden_graph, monkeypatch):
        rng = random.Random(6)
        big = [2**70, 2**62, 1, 7]  # a count past int64, and totals past 2**63
        rows = [(rng.randrange(2), rng.randrange(3), rng.choice(big)) for _ in range(2000)]
        expected = {}
        for a, b, c in rows:
            expected[(a, b)] = expected.get((a, b), 0) + c
        path = self.write(tmp_path / "repeated.csv", [f"{a},{b},{c}" for a, b, c in rows])
        # A chunk is 36 bytes and the rest of its last line: at most 7 rows.
        monkeypatch.setattr(network, "CHUNK_BYTES", 36)
        table = ingest_counts(path, golden_graph)
        assert table == CountTable.from_records(("Blood", "Medicine"), (2, 3), expected)

    @settings(max_examples=1000)
    @given(data=count_files(), chunk=st.sampled_from([1, 2, 3, 5, 8, 1 << 20]))
    # Cells moved across lines with the total right (one-digit cells, then a
    # longer count); a \r before a blank; a comment that is not UTF-8.
    @example(data=b"Blood,Medicine,count\n0,1,1,1\n0,1\n", chunk=1 << 20)
    @example(data=b"Blood,Medicine,count\n0,1\n1,0,1,10\n", chunk=1 << 20)
    @example(data=b"Blood,Medicine,count\n0,1,5\r \n", chunk=1 << 20)
    @example(data=b"Blood,Medicine,count\n0,1,5\n# caf\xff\n", chunk=1 << 20)
    def test_bulk_parse_matches_the_line_parse(self, tmp_path_factory, data, chunk):
        # The bulk kernel against `_parse_line` alone: the same records or the
        # same error, with zero tolerance.
        path = tmp_path_factory.mktemp("differential") / "counts.csv"
        path.write_bytes(data)

        def ingest():
            try:
                return dict(ingest_counts(path, verify.blood_medicine_graph()).records)
            except DataError as exc:
                return str(exc)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "CHUNK_BYTES", chunk)
            bulk = ingest()
            mp.setattr(network, "_bulk_rows", lambda body, width: None)
            assert bulk == ingest()

    def test_comment_lines_keep_the_bulk_parse(self, tmp_path, golden_graph, monkeypatch):
        rng = random.Random(7)
        rows = [(rng.randrange(2), rng.randrange(3), rng.randrange(10**7)) for _ in range(400)]
        lines = [f"{a},{b},{c}" for a, b, c in rows]
        for at in range(0, len(lines), 50):  # one skipped line per 50 rows
            lines.insert(at, ["# note", "", " \t\r", "\u3000# wide"][at // 50 % 4])
        expected = {}
        for a, b, c in rows:
            expected[(a, b)] = expected.get((a, b), 0) + c
        calls = []
        parse_line = network._parse_line
        monkeypatch.setattr(network, "_parse_line", lambda *a: calls.append(a) or parse_line(*a))
        monkeypatch.setattr(network, "CHUNK_BYTES", 600)  # about 50 rows
        table = ingest_counts(self.write(tmp_path / "comments.csv", lines), golden_graph)
        assert table.records == expected
        assert calls == []

    @pytest.mark.parametrize(
        "counts",
        [
            {(0, 0): 2**70, (0, 1): 3, (0, 2): 1, (1, 0): 5, (1, 1): 1, (1, 2): 7},
            {(0, 0): 2**62, (0, 1): 2**62 + 1, (0, 2): 3, (1, 0): 2**62, (1, 1): 1, (1, 2): 1},
        ],
        ids=["count-2^70", "total-past-2^63"],
    )
    def test_counts_past_int64_learn_exactly(self, tmp_path, golden_graph, counts):
        path = self.write(tmp_path / "big.csv", [f"{a},{b},{c}" for (a, b), c in counts.items()])
        table = ingest_counts(path, golden_graph)
        cpts = {c.node: c for c in learn_mle(table, golden_graph)}
        rows = [[counts[(a, b)] for b in range(3)] for a in range(2)]
        total = sum(map(sum, rows))
        assert cpts["Blood"].dists[0].probs == tuple(F(sum(r), total) for r in rows)
        for a, row in enumerate(rows):
            assert cpts["Medicine"].dists[a].probs == tuple(F(c, sum(row)) for c in row)
        bayes = {c.node: c for c in learn_bayes(table, golden_graph)}
        assert bayes["Medicine"].posteriors[0].counts == tuple(c + 1 for c in rows[0])


@st.composite
def learning_cases(draw):
    """A graph of up to three nodes of arity <= 3, a table over it with small
    counts and counts past int64, and a prior, some of it past int64, for some nodes."""
    names = [f"V{i}" for i in range(draw(st.integers(1, 3)))]
    arities = tuple(draw(st.integers(1, 3)) for _ in names)
    edges = draw(st.permutations(
        [(p, c) for i, p in enumerate(names) for c in names[i + 1:] if draw(st.booleans())]))
    graph = GraphSpec(tuple(zip(names, arities)), tuple(edges))
    outcome = st.tuples(*(st.integers(0, a - 1) for a in arities))
    count = st.one_of(st.integers(0, 3), st.integers(2**62, 2**70))
    records = draw(st.dictionaries(outcome, count, max_size=8))
    pseudo = st.one_of(st.integers(1, 4), st.just(2**64))
    prior = {n: tuple(draw(pseudo) for _ in range(a))
             for n, a in zip(names, arities) if draw(st.booleans())}
    return graph, CountTable.from_records(tuple(names), arities, records), prior


def family_rows(table, graph, node):
    """A family's count rows, counted from the table's records with plain ints."""
    parents = graph.parents(node)
    positions = [table.variables.index(v) for v in parents + (node,)]
    dims = [graph.arity(v) for v in parents + (node,)]
    flat = [0] * math.prod(dims)
    for outcome, c in table.records.items():
        flat[row_major([outcome[p] for p in positions], dims)] += c
    k = graph.arity(node)
    return [tuple(flat[i:i + k]) for i in range(0, len(flat), k)]


class TestArrayTables:
    """The `(configs, arity)` weight arrays against the law functions they
    replace, with zero tolerance."""

    @given(learning_cases())
    def test_rows_are_the_law_functions(self, case):
        graph, table, prior = case
        rows = {node: family_rows(table, graph, node) for node in graph.node_names}
        empty = [node for node in graph.node_names if not all(map(any, rows[node]))]
        if empty:
            with pytest.raises(DataError, match=f"family {empty[0]} "):
                learn_mle(table, graph)
        else:
            for cpt in learn_mle(table, graph):
                assert cpt.posteriors is None
                assert cpt.dists == tuple(mle(Multiset(row)) for row in rows[cpt.node])
        for cpt in learn_bayes(table, graph, prior):
            base = HyperParams(prior.get(cpt.node, (1,) * cpt.arity))
            assert cpt.posteriors == tuple(base + Multiset(row) for row in rows[cpt.node])
            assert cpt.dists == tuple(mle(post) for post in cpt.posteriors)

    @pytest.mark.parametrize(
        "counts,prior,posterior",
        [
            ({(0,): 2**70, (1,): 3}, None, (2**70 + 1, 4)),
            # Counts total 2**62; only the prior takes the first cell to 2**63.
            ({(0,): 2**62}, (2**62, 1), (2**63, 1)),
        ],
        ids=["count-2^70", "prior-crosses-2^63"],
    )
    def test_bayes_past_2_63(self, tmp_path, counts, prior, posterior):
        graph = GraphSpec((("A", 2),), ())
        table = CountTable.from_records(("A",), (2,), counts)
        (cpt,) = learn_bayes(table, graph, {"A": prior} if prior else None)
        total = sum(posterior)
        assert cpt.posteriors == (HyperParams(posterior),)
        assert cpt.dists == (Dist(tuple(F(a, total) for a in posterior)),)
        write_cpts([cpt], tmp_path)
        means = [f"{F(a, total).numerator}/{F(a, total).denominator}" for a in posterior]
        assert read_csv(tmp_path / "A.csv")[1] == [str(a) for a in posterior] + means

    def test_mle_zero_row_decodes_row_major(self):
        graph = GraphSpec((("A", 2), ("B", 2), ("C", 2)), (("A", "C"), ("B", "C")))
        # Parent configurations in row-major order: (0,0) (0,1) (1,0) (1,1); index 2 is empty.
        records = {(0, 0, 0): 1, (0, 1, 1): 2, (1, 1, 0): 3}
        table = CountTable.from_records(("A", "B", "C"), (2, 2, 2), records)
        message = "family C | A,B: no observations for parent configuration A=1, B=0;"
        with pytest.raises(DataError, match=re.escape(message)):
            learn_mle(table, graph)
