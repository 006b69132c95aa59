"""The exit-code contract of `learn`, fuzzed over graph, CSV and prior text.

Whatever the three files hold, `learn` ends in exit 0 or exit 2 (an input
error; argparse's own exit 2 counts), raises nothing else, and writes
nothing outside `--out`; a run that exits 2 leaves `--out` as it found it,
whether it was absent, empty, or held old tables or a directory where a
table goes.  Valid numbers come from small ranges, so an accepted input
never builds a large family table.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptforge.cli import main

BAD_TOKENS = st.one_of(
    st.sampled_from(["-1", "+1", "1_0", "\u0663", "1.0", "", " 2\t", "0x1", '"1"', "0", "4",
                     "99999999999999999999999", "9" * 5000, "count", "../x", "\u00e9", "D"]),
    st.text(max_size=6),
)
JUNK_LINES = st.one_of(st.sampled_from(["", "  ", "#", "# note", "\t# x"]), st.text(max_size=8))
# What `--out` holds before the run: None is no directory; a None entry is a
# directory, which no table can replace.
OUT_STATES = st.sampled_from([
    None, {}, {"A.csv": b"old\n"}, {"B.csv": None}, {"A.csv": b"old\n", "C.csv": None},
])


@st.composite
def learn_inputs(draw):
    """Graph, CSV and prior files of up to three nodes of arity <= 3, then a
    few mutations: a token swapped for a bad one, a junk line inserted, a
    line dropped, a byte that is not UTF-8."""
    names = draw(st.permutations(["A", "B", "C"]))[: draw(st.integers(1, 3))]
    arities = [draw(st.integers(1, 3)) for _ in names]
    edges = [(p, c) for i, p in enumerate(names) for c in names[i + 1 :] if draw(st.booleans())]
    header = draw(st.permutations(names)) + ["count"]
    rows = draw(st.lists(st.tuples(
        st.tuples(*(st.integers(0, a - 1) for a in arities)),
        st.one_of(st.integers(0, 5), st.just(2**70)),
    ), min_size=1, max_size=6))
    files = {
        "graph.txt": [["node", n, str(a)] for n, a in zip(names, arities)]
        + [["edge", p, c] for p, c in edges],
        "data.csv": [header] + [
            [str(count) if h == "count" else str(outcome[names.index(h)]) for h in header]
            for outcome, count in rows
        ],
        "prior.txt": [[n, *(str(draw(st.integers(1, 4))) for _ in range(a))]
                      for n, a in zip(names, arities) if draw(st.booleans())],
    }
    bad_byte = set()
    for kind, name in draw(st.lists(st.tuples(
        st.sampled_from(["token", "junk", "drop", "byte"]), st.sampled_from(sorted(files))
    ), min_size=1, max_size=3)):
        lines = files[name]
        if kind == "byte":
            bad_byte.add(name)
        elif kind == "junk":
            lines.insert(draw(st.integers(0, len(lines))), [draw(JUNK_LINES)])
        elif lines:
            at = draw(st.integers(0, len(lines) - 1))
            if kind == "drop":
                del lines[at]
            elif lines[at]:  # counted from the end: numbers end every kind of line
                lines[at][-1 - draw(st.integers(0, len(lines[at]) - 1))] = draw(BAD_TOKENS)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    out = {}
    for name, lines in files.items():
        sep = "," if name == "data.csv" else " "
        data = "".join(sep.join(line) + eol for line in lines).encode("utf-8")
        if name in bad_byte:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        out[name] = data
    return out


@settings(max_examples=400)
@example(  # an arity past every dtype, with data to read against it
    inputs={"graph.txt": b"node A 99999999999999999999999\n", "data.csv": b"A,count\n0,1\n",
            "prior.txt": b""},
    mode="bayes",
    use_prior=False,
    out_state=None,
)
@example(  # an old table to restore once a later table cannot replace a directory
    inputs={"graph.txt": b"node A 2\nnode C 2\n", "data.csv": b"A,C,count\n0,1,1\n1,0,2\n",
            "prior.txt": b""},
    mode="mle",
    use_prior=False,
    out_state={"A.csv": b"old\n", "C.csv": None},
)
@given(
    inputs=learn_inputs(),
    mode=st.sampled_from(["mle", "bayes"]),
    use_prior=st.booleans(),
    out_state=OUT_STATES,
)
def test_learn_exits_0_or_2_and_writes_only_under_out(inputs, mode, use_prior, out_state):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in inputs.items():
            (root / name).write_bytes(content)
        out = root / "out"
        if out_state is not None:
            out.mkdir()
            for name, content in out_state.items():
                if content is None:
                    (out / name).mkdir()
                else:
                    (out / name).write_bytes(content)
        before = snapshot(out)
        argv = ["learn", "--mode", mode, "--graph", str(root / "graph.txt"),
                "--data", str(root / "data.csv"), "--out", str(out)]
        if use_prior:
            argv += ["--prior", str(root / "prior.txt")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            assert stderr.getvalue().startswith(("error: ", "usage: "))
            assert snapshot(out) == before
        written = {p for p in root.rglob("*") if p.is_file() and out not in p.parents}
        assert written == {root / name for name in inputs}


def snapshot(out: Path) -> dict[str, bytes | None] | None:
    """Every path under `out` with its bytes (None for a directory), or None
    if `out` does not exist."""
    if not out.exists():
        return None
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}
