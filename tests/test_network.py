import csv
import math
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge import network, verify
from cptforge.bayes import batch_update
from cptforge.cli import main
from cptforge.dirichlet import HyperParams, dirichlet_mean
from cptforge.dist import Channel, Dist
from cptforge.finset import FinMap, Multiset, ms_map
from cptforge.mle import MonadCounterexample, mle, mle_decompose, monad_counterexample
from cptforge.network import (
    CountTable,
    DataError,
    GraphSpec,
    format_fractions,
    ingest_counts,
    learn_bayes,
    learn_mle,
    parse_prior,
    write_cpts,
)


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

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            GraphSpec((("A", 2), ("A", 3)), ())

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(DataError):
            GraphSpec((("A", 2),), (("A", "B"),))

    def test_cycle_rejected(self):
        with pytest.raises(DataError, match="cycle"):
            GraphSpec(
                (("A", 2), ("B", 2), ("C", 2)),
                (("A", "B"), ("B", "C"), ("C", "A")),
            )

    def test_arity_floor(self):
        with pytest.raises(DataError):
            GraphSpec((("A", 0),), ())

    def test_parents_in_declared_edge_order(self):
        g = GraphSpec(
            (("A", 2), ("B", 3), ("C", 2)),
            (("B", "C"), ("A", "C")),
        )
        assert g.parents("C") == ("B", "A")

    @pytest.mark.parametrize("name", ["../../escaped", "a/b", "count", "1st", "-x", "\u00e9t\u00e9"])
    def test_node_name_rule(self, name):
        with pytest.raises(DataError, match="node name"):
            GraphSpec(((name, 2),), ())
        with pytest.raises(DataError, match="line 2: node name"):
            GraphSpec.parse(f"node A 2\nnode {name} 2\n")

    def test_node_names_that_follow_the_rule(self):
        g = GraphSpec.parse("node _a 2\nnode X1.b-c 3\nnode counts 2\n")
        assert g.node_names == ("_a", "X1.b-c", "counts")

    def test_parse_error_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            GraphSpec.parse("node A 2\nnode B\n")
        with pytest.raises(DataError, match="line 1"):
            GraphSpec.parse("node A two\n")

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
            GraphSpec.parse(f"node A 2\nnode B {arity}\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("node A 2\nnode B 2\n# again\nnode A 3\n", "line 4: duplicate node A"),
            ("node A 2\n\nedge A B\n", "line 3: edge A -> B references an undeclared node"),
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
            GraphSpec.parse(text)

    def test_graph_without_node_lines_says_so(self):
        with pytest.raises(DataError, match="graph has no nodes: it needs a 'node"):
            GraphSpec.parse("# only a comment\n\n")

    def test_largest_arity_is_accepted(self):
        assert GraphSpec.parse("node A 16777216\n").arity("A") == network.MAX_FAMILY_CELLS


class TestIngest:
    def test_worked_example(self, golden_data_csv, golden_graph):
        table = ingest_counts(golden_data_csv, golden_graph)
        assert table.total() == 100
        assert table.marginal_counts(table.variables).counts == (10, 35, 25, 5, 10, 15)

    def test_duplicates_are_summed(self, tmp_path, golden_graph):
        path = tmp_path / "dup.csv"
        path.write_text("Blood,Medicine,count\n0,0,10\n0,0,5\n", encoding="utf-8")
        table = ingest_counts(path, golden_graph)
        assert table.records[(0, 0)] == 15

    def test_row_order_does_not_matter(self, tmp_path, golden_graph, golden_data_csv):
        lines = golden_data_csv.read_text(encoding="utf-8").strip().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
        a = ingest_counts(golden_data_csv, golden_graph)
        b = ingest_counts(path, golden_graph)
        assert a == b

    def test_permuted_header_accepted(self, tmp_path, golden_graph):
        path = tmp_path / "perm.csv"
        path.write_text("Medicine,Blood,count\n2,1,7\n", encoding="utf-8")
        table = ingest_counts(path, golden_graph)
        assert table.records[(1, 2)] == 7

    def test_comments_and_blank_lines_ignored(self, tmp_path, golden_graph):
        path = tmp_path / "c.csv"
        path.write_text(
            "# counts below\nBlood,Medicine,count\n\n0,1,4\n# done\n", encoding="utf-8"
        )
        assert ingest_counts(path, golden_graph).total() == 4

    def test_empty_data_is_a_valid_table(self, tmp_path, golden_graph):
        path = tmp_path / "empty.csv"
        path.write_text("Blood,Medicine,count\n", encoding="utf-8")
        table = ingest_counts(path, golden_graph)
        assert table.total() == 0

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

    def test_bad_header_rejected(self, tmp_path, golden_graph):
        path = tmp_path / "bad.csv"
        path.write_text("Blood,Pressure,count\n0,0,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            ingest_counts(path, golden_graph)

    def test_header_field_past_the_csv_limit_rejected(self, tmp_path, golden_graph):
        path = tmp_path / "bad.csv"
        path.write_text('"' + "B" * ((1 << 17) + 1) + '",Medicine,count\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1: header: field larger"):
            ingest_counts(path, golden_graph)

    def test_missing_file(self, tmp_path, golden_graph):
        with pytest.raises(DataError, match="not found"):
            ingest_counts(tmp_path / "nope.csv", golden_graph)

    def test_header_only_required(self, tmp_path, golden_graph):
        path = tmp_path / "none.csv"
        path.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            ingest_counts(path, golden_graph)


class TestLearnMle:
    def test_worked_example(self, golden_table, golden_graph):
        cpts = {c.node: c for c in learn_mle(golden_table, golden_graph)}
        assert cpts["Blood"].dists[0].probs == (F(7, 10), F(3, 10))
        assert tuple(d.probs for d in cpts["Medicine"].dists) == (
            (F(1, 7), F(1, 2), F(5, 14)),
            (F(1, 6), F(1, 3), F(1, 2)),
        )

    def test_single_node_graph(self):
        graph = GraphSpec((("X", 3),), ())
        table = CountTable.from_records(("X",), (3,), {(0,): 2, (1,): 3, (2,): 5})
        (cpt,) = learn_mle(table, graph)
        assert cpt.dists[0].probs == (F(1, 5), F(3, 10), F(1, 2))

    def test_matches_two_node_decomposition(self, golden_table, golden_graph, golden_joint):
        cpts = {c.node: c for c in learn_mle(golden_table, golden_graph)}
        first, channel = mle_decompose(golden_joint)
        assert cpts["Blood"].dists[0] == first
        assert Channel(cpts["Medicine"].dists) == channel

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


class TestLearnBayes:
    def test_worked_example_posteriors(self, golden_table, golden_graph):
        cpts = {c.node: c for c in learn_bayes(golden_table, golden_graph)}
        blood, med = cpts["Blood"], cpts["Medicine"]
        assert blood.posteriors[0].alphas == (71, 31)
        assert blood.dists[0].probs == (F(71, 102), F(31, 102))
        assert med.posteriors[0].alphas == (11, 36, 26)
        assert med.dists[0].probs == (F(11, 73), F(36, 73), F(26, 73))

    def test_zero_data_keeps_prior(self, golden_graph):
        table = CountTable.from_records(("Blood", "Medicine"), (2, 3), {})
        cpts = {c.node: c for c in learn_bayes(table, golden_graph)}
        assert cpts["Blood"].posteriors[0].alphas == (1, 1)
        assert cpts["Medicine"].dists[0] == Dist((F(1, 3),) * 3)

    def test_never_aborts_on_missing_configuration(self, golden_graph):
        table = CountTable.from_records(("Blood", "Medicine"), (2, 3), {(0, 0): 10})
        cpts = {c.node: c for c in learn_bayes(table, golden_graph)}
        assert cpts["Medicine"].posteriors[1].alphas == (1, 1, 1)

    def test_custom_prior(self, golden_table, golden_graph):
        cpts = {
            c.node: c
            for c in learn_bayes(golden_table, golden_graph, {"Blood": (5, 10)})
        }
        assert cpts["Blood"].posteriors[0].alphas == (75, 40)

    def test_prior_validation(self, golden_table, golden_graph):
        with pytest.raises(DataError):
            learn_bayes(golden_table, golden_graph, {"Nope": (1, 1)})
        with pytest.raises(ValueError):
            learn_bayes(golden_table, golden_graph, {"Blood": (1, 0)})

    def test_posterior_means_approach_mle_as_counts_scale(self, golden_graph):
        from cptforge.verify import blood_medicine_table

        mle_cpts = {
            c.node: c for c in learn_mle(blood_medicine_table(), golden_graph)
        }
        gaps = []
        for k in (1, 10, 100):
            cpts = {
                c.node: c
                for c in learn_bayes(blood_medicine_table(scale=k), golden_graph)
            }
            gap = max(
                abs(p - q)
                for node in ("Blood", "Medicine")
                for post, ref in zip(cpts[node].dists, mle_cpts[node].dists)
                for p, q in zip(post.probs, ref.probs)
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < F(1, 100)
        # first-order rate: scaling the data 10x shrinks the gap ~10x
        assert gaps[1] < gaps[0] / 5
        assert gaps[2] < gaps[1] / 5


class TestPriorParsing:
    def test_parse(self, golden_graph):
        priors = parse_prior("# p\nBlood 2 2\nMedicine 1 1 1\n", golden_graph)
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
            parse_prior(text, golden_graph)


class TestOutputFiles:
    def test_format_fraction(self):
        cases = {(7, 10): "7/10", (1, 1): "1/1", (0, 1): "0/1", (-1, 2): "-1/2",
                 (5, 5): "1/1", (0, 7): "0/1", (6, 33): "2/11", (-2, 4): "-1/2"}
        numerators, denominators = zip(*cases)
        rendered = format_fractions(np.array(numerators), np.array(denominators))
        assert rendered.tolist() == list(cases.values())
        big = format_fractions(np.array([2**70, 3 * 2**70], dtype=object), np.array(2**71 * 3))
        assert big.tolist() == ["1/6", "1/2"]

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


class TestCli:
    def test_learn_mle_end_to_end(self, tmp_path, golden_graph_file, golden_data_csv):
        out = tmp_path / "out"
        code = main(
            [
                "learn",
                "--mode",
                "mle",
                "--graph",
                str(golden_graph_file),
                "--data",
                str(golden_data_csv),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_csv(out / "Blood.csv")[1] == ["7/10", "3/10"]

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

    def test_missing_data_file_is_input_error(self, tmp_path, golden_graph_file, capsys):
        code = main(
            ["learn", "--mode", "mle", "--graph", str(golden_graph_file),
             "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

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

    def test_verify_golden_suite(self, capsys):
        assert main(["verify", "--suite", "golden"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] golden/empirical-joint" in out
        assert "SUMMARY:" in out and "0 failed" in out

    def test_verify_exact_suite(self, capsys):
        assert main(["verify", "--suite", "exact", "--seed", "7"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_verify_stochastic_reports_are_reproducible(self, capsys):
        assert main(["verify", "--suite", "stochastic", "--seed", "42",
                     "--resolution", "100"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "stochastic", "--seed", "42",
                     "--resolution", "100"]) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("value", ["4", "3", "2", "1", "0", "-3"])
    def test_verify_resolution_below_five_is_input_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "golden", "--resolution", value])
        assert exc.value.code == 2
        assert f"--resolution: must be at least 5, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5", "50"])
    def test_verify_stochastic_passes_at_coarse_resolutions(self, value, capsys):
        # Each quadrature law's tolerance scales with the grid, so a coarse
        # accepted --resolution reports no law as failed.
        assert main(["verify", "--suite", "stochastic", "--resolution", value]) == 0
        assert "11 passed, 0 failed" in capsys.readouterr().out

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

    @pytest.mark.parametrize("value", ["-1", "-100"])
    def test_verify_seed_below_zero_is_input_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "stochastic", "--seed", value])
        assert exc.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["graph", "data", "prior"])
    def test_non_utf8_file_is_input_error(
        self, tmp_path, golden_graph_file, golden_data_csv, bad
    ):
        files = {"graph": golden_graph_file, "data": golden_data_csv,
                 "prior": tmp_path / "prior.txt"}
        files["prior"].write_text("Blood 2 2\n", encoding="utf-8")
        files[bad] = tmp_path / f"bad-{bad}.txt"
        files[bad].write_bytes(b"# fine\nBlood \xff\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cptforge", "learn", "--mode", "bayes",
             "--graph", str(files["graph"]), "--data", str(files["data"]),
             "--prior", str(files["prior"]), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"bad-{bad}.txt: line 2: not valid UTF-8" in proc.stderr

    @pytest.mark.parametrize(
        "bad,text,message",
        [
            ("graph", "node A 2\nnode A 2\n", "line 2: duplicate node A"),
            ("data", "A,count\n0,x\n", "line 2: count 'x' is not an integer"),
            ("prior", "A 1 x\n", "line 1: pseudo-counts must be integers"),
        ],
        ids=["graph", "data", "prior"],
    )
    def test_input_error_names_the_file_once(self, tmp_path, capsys, bad, text, message):
        files = {"graph": "node A 2\n", "data": "A,count\n0,1\n", "prior": "A 1 2\n"}
        files[bad] = text
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(content, encoding="utf-8")
        code = main(["learn", "--mode", "bayes", "--graph", str(paths["graph"]),
                     "--data", str(paths["data"]), "--prior", str(paths["prior"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[bad]}: {message}\n"

    def test_node_name_cannot_escape_out(self, tmp_path, golden_data_csv, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("node ../escaped 2\n", encoding="utf-8")
        out = tmp_path / "a" / "out"
        code = main(["learn", "--mode", "bayes", "--graph", str(graph),
                     "--data", str(golden_data_csv), "--out", str(out)])
        assert code == 2
        assert "line 1: node name" in capsys.readouterr().err
        assert not (tmp_path / "a" / "escaped.csv").exists()

    def test_console_entry_point(self, tmp_path, golden_graph_file, golden_data_csv):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "cptforge", "learn", "--mode", "mle",
             "--graph", str(golden_graph_file), "--data", str(golden_data_csv),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "Medicine.csv").exists()


class TestFamilyCellCap:
    @staticmethod
    def star(n_parents):
        """A node C with `n_parents` arity-4 parents, and a one-row table."""
        parents = tuple((f"P{i:02d}", 4) for i in range(n_parents))
        graph = GraphSpec(parents + (("C", 4),), tuple((p, "C") for p, _ in parents))
        table = CountTable.from_records(
            graph.node_names, (4,) * (n_parents + 1), {(0,) * (n_parents + 1): 1}
        )
        return graph, table

    @pytest.mark.parametrize("n_parents", [20, 40])  # 2^42 cells; 2^82, past intp
    def test_cap_fires_before_allocation(self, n_parents):
        graph, table = self.star(n_parents)
        tracemalloc.start()
        try:
            for learn in (learn_mle, learn_bayes):
                with pytest.raises(DataError, match=r"over P00, .*, C needs \d+ cells.*cap"):
                    learn(table, graph)
            with pytest.raises(DataError, match="cap"):
                table.marginal_counts(table.variables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_an_input_error(self, tmp_path, capsys):
        graph, _ = self.star(20)
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text(
            "".join(f"node {n} {a}\n" for n, a in graph.nodes)
            + "".join(f"edge {p} {c}\n" for p, c in graph.edges),
            encoding="utf-8",
        )
        data = tmp_path / "data.csv"
        data.write_text(",".join(graph.node_names) + ",count\n", encoding="utf-8")
        code = main(["learn", "--mode", "bayes", "--graph", str(graph_file),
                     "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "cap" in capsys.readouterr().err


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
            cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(1, 8)))
            bounds = list(zip([0, *cuts], [*cuts, len(rows)]))
            pieces = [ingest_counts(self.write(tmp_path / f"{trial}-{a}.csv", rows[a:b]),
                                    golden_graph) for a, b in bounds]
            summed = pieces[0].marginal_counts(whole.variables)
            for piece in pieces[1:]:
                summed = summed + piece.marginal_counts(whole.variables)
            assert summed == whole.marginal_counts(whole.variables)
        monkeypatch.setattr(network, "CHUNK_LINES", 7)
        assert ingest_counts(tmp_path / "whole.csv", golden_graph) == whole

    def test_file_longer_than_one_chunk(self, tmp_path, golden_graph):
        rng = random.Random(5)
        rows = [(rng.randrange(2), rng.randrange(3), rng.randrange(10))
                for _ in range(network.CHUNK_LINES + 1000)]
        lines = [f"{a},{b},{c}" for a, b, c in rows]
        lines.insert(network.CHUNK_LINES + 100, "# a comment in the second chunk")
        expected = {}
        for a, b, c in rows:
            expected[(a, b)] = expected.get((a, b), 0) + c
        table = ingest_counts(self.write(tmp_path / "long.csv", lines), golden_graph)
        assert table == CountTable.from_records(("Blood", "Medicine"), (2, 3), expected)
        assert table.total() == sum(c for _, _, c in rows)

    @pytest.mark.parametrize("bad,message", [("1,3,1", "outside"), ("1,+2,1", "not an integer")])
    def test_bad_line_in_a_later_chunk_is_named(self, tmp_path, golden_graph, bad, message):
        lines = ["0,1,2"] * (network.CHUNK_LINES + 10)
        lines[network.CHUNK_LINES + 2] = "# a comment before the bad line"
        lines[network.CHUNK_LINES + 5] = bad  # file line CHUNK_LINES + 7, after the header
        path = self.write(tmp_path / "bad.csv", lines)
        with pytest.raises(DataError, match=f"line {network.CHUNK_LINES + 7}: .*{message}"):
            ingest_counts(path, golden_graph)

    def test_repeated_rows_are_merged_as_they_accumulate(self, tmp_path, golden_graph,
                                                         monkeypatch):
        rng = random.Random(6)
        big = [2**70, 2**62, 1, 7]  # a count past int64, and totals past 2**63
        rows = [(rng.randrange(2), rng.randrange(3), rng.choice(big)) for _ in range(2000)]
        expected = {}
        for a, b, c in rows:
            expected[(a, b)] = expected.get((a, b), 0) + c
        path = self.write(tmp_path / "repeated.csv", [f"{a},{b},{c}" for a, b, c in rows])
        monkeypatch.setattr(network, "CHUNK_LINES", 7)
        monkeypatch.setattr(network, "MERGE_ROWS", 20)
        table = ingest_counts(path, golden_graph)
        assert table == CountTable.from_records(("Blood", "Medicine"), (2, 3), expected)
        # At most twice the distinct tuples plus MERGE_ROWS plus one chunk stay held.
        assert len(table.counts) <= 2 * len(expected) + 20 + 7

    @staticmethod
    def loadtxt_casting_via_float(real):
        """np.loadtxt as numpy 1.23-1.26 behave: a cell too large for its dtype
        is read as a float and cast, with only a DeprecationWarning."""
        def loadtxt(fname, *args, dtype, **kwargs):
            rows = [[int(c) for c in line.split(b",")]
                    for line in fname.getvalue().splitlines() if line.strip()]
            width = dtype["outcomes"].shape[0]
            limits = [np.iinfo(dtype["outcomes"].base).max] * width + [np.iinfo(np.int64).max]
            if any(v > top for row in rows for v, top in zip(row, limits)):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
                return np.zeros(len(rows), dtype=dtype)  # stands for the wrapped values
            return real(fname, *args, dtype=dtype, **kwargs)
        return loadtxt

    def test_bulk_parse_refuses_the_float_fallback(self, tmp_path, golden_graph, monkeypatch):
        monkeypatch.setattr(network.np, "loadtxt", self.loadtxt_casting_via_float(np.loadtxt))
        path = self.write(tmp_path / "wide.csv", ["0,0,1", "1,300,2"])
        with pytest.raises(DataError, match="line 3: outcome 300 for Medicine outside 0..2"):
            ingest_counts(path, golden_graph)
        path = self.write(tmp_path / "long.csv", ["0,0,1", f"1,2,{2**70}"])
        assert ingest_counts(path, golden_graph).records == {(0, 0): 1, (1, 2): 2**70}

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
        assert bayes["Medicine"].posteriors[0].alphas == tuple(c + 1 for c in rows[0])


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
            assert cpt.posteriors == tuple(batch_update(base, Multiset(row))
                                           for row in rows[cpt.node])
            assert cpt.dists == tuple(dirichlet_mean(post) for post in cpt.posteriors)

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
