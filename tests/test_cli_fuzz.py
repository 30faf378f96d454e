"""Fuzz of the config surface through cli.main, in process.

A command, its config keys and their values are drawn from cli.KEYS (plus
keys that no command or not this command reads), with graph and outputs
files for verify.  Every draw runs (exit 0 or 1) or is a config error
(exit 2) whose message names what to fix: a key, a config line, a missing
key or a file.  None is a program fault (exit 3), and none raises.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from predsync import cli, measures, registry
from predsync.graphs import FAMILIES, ID_SCHEMES, PROBLEM_KINDS
from predsync.templates import TEMPLATES


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _one_of(*names):
    return st.sampled_from(names)


_often = _one_of(True, True, True, False)


FILES = ("graph.txt", "outputs.txt", "binary.txt", "missing.txt")

# each key's values, valid and not; n is at most 12
VALUES = {
    "graph": _one_of(*FAMILIES, "line", "NOPE"),
    "id_scheme": _one_of(*ID_SCHEMES, "increasing"),
    "n": _ints(-1, 12),
    "p": _one_of("0", "0.3", "1", "-0.1", "1.5", "nan", "x"),
    "d": _ints(-1, 30),
    "k_rim": _ints(1, 5),
    "rows": _ints(-1, 3),
    "cols": _ints(-1, 3),
    "shape": _one_of("random", "line", "LINE", "x"),
    "problem": _one_of(*PROBLEM_KINDS, "mis", "X"),
    "template": _one_of(*TEMPLATES, "x"),
    "phase": _ints(-1, 6),
    "program": _one_of(*registry.PROGRAMS, "", "nope"),
    "pattern": _one_of(*measures.PATTERNS, "x"),
    "max_rounds": _ints(0, 30),
    "k": _ints(-1, 6),
    "seed": _ints(-1, 3),
    "k_range": _one_of("0..2", "3", "0,4", "", "-1", "2..1", "a"),
    "seed_range": _one_of("0..1", "2", "", "x", "1..0"),
    "graph_file": _one_of(*FILES),
    "outputs_file": _one_of(*FILES),
}
# sizes that every family builds
SIZES = {"n": _ints(1, 12), "p": _one_of("0.2", "0.5"), "k_rim": _ints(3, 5),
         "rows": _ints(1, 3), "cols": _ints(1, 3)}


@st.composite
def configs(draw):
    """(command, config text)."""
    command = draw(_one_of("run", "sweep", "verify"))
    read = [key for key, (_, commands, _) in cli.KEYS.items()
            if command in commands]
    cfg = {}
    # most draws start from what runs: a family with its size keys, or
    # verify's two files
    if command in ("run", "sweep") and draw(_often):
        family = draw(_one_of(*FAMILIES))
        cfg["graph"] = family
        for key, (_, _, param) in cli.KEYS.items():
            if param in FAMILIES[family][1]:
                cfg[key] = draw(SIZES[key])
    if command == "verify" and draw(_often):
        cfg.update(graph_file="graph.txt", outputs_file="outputs.txt")
    for key in draw(st.lists(_one_of(*read), unique=True, max_size=4)):
        cfg[key] = draw(VALUES[key])
    lines = [f"{key} = {value}" for key, value in cfg.items()]
    if not draw(_often):  # a key this command may not read, or junk
        lines.append(draw(_one_of(*(f"{key} = 1" for key in cli.KEYS),
                                  "tree = true", "phsae = 4", "# note", "",
                                  "no equals sign")))
    return command, "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def files(draw):
    """(graph file, outputs file) over nodes 1..n: a graph of V lines and
    edges, or a rooted path with its P lines; one output line per node, or
    an edge-colouring line per edge end; each file sometimes with one line
    more that is junk, repeated or out of range."""
    n = draw(st.integers(1, 5))
    nodes = range(1, n + 1)
    edges = draw(st.lists(_one_of(*((u, v) for u in nodes for v in nodes
                                    if u < v)), unique=True)) if n > 1 else []
    path = not draw(_often)
    if path:
        edges = list(zip(nodes, nodes[1:]))
    graph = [f"{n} {draw(_one_of(n, n + 2, n - 1))}",
             *(f"V {u}" for u in nodes), *(f"{u} {v}" for u, v in edges),
             *(f"P {u} {u - 1}" for u in nodes if path)]
    if draw(_often):
        outputs = [f"{u} {draw(_one_of('0', '1', '2', '-'))}" for u in nodes]
    else:
        outputs = [f"{a} {b} {draw(_one_of('1', '2', '3'))}"
                   for u, v in edges for a, b in ((u, v), (v, u))]
    junk = _one_of("x", "1 1", "1 2", "1 2 3", "P 1", "V x", "0 1", "9 1",
                   "# c", "")
    for lines in (graph, outputs):
        if not draw(_often):
            lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(graph) + "\n", "\n".join(outputs) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(drawn=configs(), files=files(), trace=st.booleans())
def test_every_config_runs_or_names_its_error(workdir, drawn, files, trace):
    command, text = drawn
    graph, outputs = files
    for key in ("graph_file", "outputs_file"):
        text = text.replace(f"{key} = ", f"{key} = {workdir}/")
    (workdir / "graph.txt").write_text(graph)
    (workdir / "outputs.txt").write_text(outputs)
    (workdir / "binary.txt").write_bytes(b"1 2\n\xff\n")
    cfg = workdir / "c.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv + ["--trace"] if trace and command == "run"
                          else argv)
    err = err.getvalue()
    assert status in (0, 1, 2), (text, err)
    if status == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
        key = re.match(r"config error: (\w+) = ", err)
        assert ((key and key.group(1) in cli.KEYS)
                or err.startswith(f"config error: {cfg}:")
                or re.match(r"config error: (graph \w+|verify) needs ", err)
                or str(workdir) in err), (text, err)
    else:
        assert "config error" not in err
