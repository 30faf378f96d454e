"""Command-line harness: commands, exit codes and CSV determinism."""

import gc
import importlib.util
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from predsync import cli, engine, graphs, measures, registry
from predsync.cli import Plan, main, parse_range, run_one
from predsync.engine import Step
from predsync.graphs import line
from predsync.stages import Stage
from predsync.templates import TEMPLATES

from helpers import write_graph


def _cfg(tmp_path, text, name="c.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_range():
    assert parse_range("0..3") == [0, 1, 2, 3]
    assert parse_range("5") == [5]
    assert parse_range("1,4,9") == [1, 4, 9]


def test_run_consistency_row(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 8\np = 0.4\n"
                         "problem = MIS\ntemplate = simple\nk = 0\nseed = 1\n")
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["rounds"] == "3"
    assert cells["bound_consistency"] == "true"
    assert cells["valid"] == "VALID"


def test_run_grid_pattern_row(tmp_path, capsys):
    # the blocks follow grid positions under either id scheme
    for ids in ("", "id_scheme = SEEDED_PERMUTATION\nseed = 3\n"):
        cfg = _cfg(tmp_path, "graph = GRID\nrows = 16\ncols = 16\n"
                             "problem = MIS\ntemplate = simple\n"
                             "pattern = GRID_4BLOCK\n" + ids)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["eta1"] == "256" and cells["eta_bw"] == "4", ids
        assert cells["eta2"] == ""  # above the oracle cap: empty, never 0


def test_run_tree_program_row(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = TREE\nshape = line\nn = 15\nproblem = MIS\n"
                         "program = mis.tree_init_eager\npattern = MOD3_LINE\n")
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["rounds"] == "2" and cells["eta_t"] == "2"


def test_run_invalid_program_row_fails(tmp_path, capsys):
    # mm.base leaves node 12 without output on this instance
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = MAXIMAL_MATCHING\nprogram = mm.base\n"
                         "k = 1\nseed = 0\n")
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    header, row = captured.out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["valid"] == "INCOMPLETE" and cells["template"] == "mm.base"
    assert ("ASSERTION FAILED (k=1, seed=0): invalid solution: INCOMPLETE"
            in captured.err)
    assert ",12,TERMINATE," in captured.err  # the trace is dumped


def test_sweep_deterministic_csv(tmp_path):
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = MIS\ntemplate = simple\n"
                         "k_range = 0..3\nseed_range = 0..2\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert len(rows) == 1 + 4 * 3
    ks = [int(r.split(",")[6]) for r in rows[1:]]
    assert ks == sorted(ks)


def test_sweep_empty_range_is_config_error(tmp_path):
    cfg = _cfg(tmp_path, "graph = LINE\nn = 5\nk_range = \nseed_range = 0\n")
    assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("problem", ["MIS", "EDGE_COLORING"])
def test_sweep_builds_each_seed_once(tmp_path, monkeypatch, problem):
    """Graph, reference solution and MIS sets depend only on the seed, so a
    k 0..3 x seed 0..2 sweep builds each once per seed, not once per run."""
    calls = {"generate": 0, "solve": 0, "mis_bitmasks": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(cli, "generate")
    counted(measures, "solve")
    counted(measures, "mis_bitmasks")
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 12\np = 0.3\n"
                         f"problem = {problem}\ntemplate = simple\n"
                         "k_range = 0..3\nseed_range = 0..2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) in (0, 1)
    assert calls == {"generate": 3, "solve": 3,
                     "mis_bitmasks": 3 if problem == "MIS" else 0}


def test_plan_leaves_no_reference_cycles():
    """A dropped plan is freed at once, capped oracles included: the plan
    keeps a CAPPED marker, never an exception and its traceback.  No run
    leaves a reference cycle either, on any problem and template, failing
    and replayed or raising inside simulate; cli.GC_YOUNG_THRESHOLD rests
    on that."""
    rc = {"graph": "RANDOM_CONNECTED", "n": "14", "p": "0.3"}
    configs = [
        {"graph": "LINE", "n": "30", "problem": "MIS", "template": "simple",
         "pattern": "ALL_ONES"},  # eta2 and eta_H over their caps
        *({**rc, "problem": "MIS", "template": t} for t in TEMPLATES),
        *({**rc, "problem": kind, "template": t}
          for kind in ("MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING")
          for t in ("simple", "consecutive")),
        *({"graph": "TREE", "n": "14", "problem": "MIS", "template": t}
          for t in ("simple", "parallel")),
        {**rc, "program": "mis.greedy"},
        # bound_degrading fails for k >= 1, so those rows are replayed
        {"graph": "LINE", "n": "10", "problem": "EDGE_COLORING",
         "template": "simple"},
        # NON_TERMINATION raised inside simulate
        {"graph": "LINE", "n": "20", "problem": "MIS", "pattern": "ALL_ZEROS",
         "max_rounds": "2"},
    ]
    replayed = raised = 0
    for cfg in configs:
        gc.collect()
        gc.disable()
        try:
            plan = Plan(cfg)
            rows = []
            for k in range(3):
                for seed in range(2):
                    row, failures, outcome = run_one(plan, k, seed)
                    rows.append(row)
                    if failures and outcome is not None:
                        replayed += bool(cli.replay(plan, k, seed, outcome))
                    raised += outcome is None
            if plan.kind == "MIS":
                capped = cfg.get("pattern") == "ALL_ONES"
                assert all((row["eta_H"] is None) == capped for row in rows)
            freed = weakref.ref(plan)
            del plan
            assert freed() is None
            assert gc.collect() == 0, cfg
        finally:
            gc.enable()
    assert replayed >= 4 and raised == 6


def test_main_restores_the_gc_threshold(tmp_path, monkeypatch):
    """A command runs under GC_YOUNG_THRESHOLD and leaves the collector's
    thresholds as it found them, however it exits."""
    ok = _cfg(tmp_path, "graph = LINE\nn = 5\nproblem = MIS\n", "ok.cfg")
    failing = _cfg(tmp_path, "graph = LINE\nn = 10\nproblem = EDGE_COLORING\n"
                             "k_range = 0..1\n", "failing.cfg")
    bad = _cfg(tmp_path, "graph = NOPE\n", "bad.cfg")
    during = []

    def raising(cfg, args):
        during.append(gc.get_threshold())
        raise RuntimeError("escapes the handler")

    saved = gc.get_threshold()
    gc.set_threshold(500, 7, 9)
    try:
        assert main(["run", "--config", ok]) == 0
        assert gc.get_threshold() == (500, 7, 9)
        assert main(["sweep", "--config", failing]) == 1
        assert gc.get_threshold() == (500, 7, 9)
        assert main(["run", "--config", bad]) == 2
        assert gc.get_threshold() == (500, 7, 9)
        with pytest.raises(SystemExit):
            main(["nope", "--config", ok])
        assert gc.get_threshold() == (500, 7, 9)
        monkeypatch.setattr(cli, "cmd_sweep", raising)
        with pytest.raises(RuntimeError, match="escapes the handler"):
            main(["sweep", "--config", ok])
        assert gc.get_threshold() == (500, 7, 9)
    finally:
        gc.set_threshold(*saved)
    assert during == [(cli.GC_YOUNG_THRESHOLD, 7, 9)]


def test_readme_graph_families_are_accepted(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = re.search(r"^graph = \w+ +# (.*)$", readme, re.M).group(1)
    keys = {"LINE": "n = 5", "GRID": "rows = 3\ncols = 3", "WHEEL_FK": "k_rim = 4",
            "TREE": "n = 6", "RANDOM": "n = 6\np = 0.5",
            "RANDOM_CONNECTED": "n = 6\np = 0.5"}
    families = [f.strip() for f in listed.split(",")]
    for family in families:
        cfg = _cfg(tmp_path, f"graph = {family}\n{keys.get(family, 'n = 6')}\n"
                             "problem = MIS\n", f"{family}.cfg")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0, family
    assert set(families) == set(keys)


def test_tree_key_is_not_a_config_key(tmp_path, capsys):
    # tree programs follow the graph, so "tree" is no key: a config error,
    # never the tree programs run on a graph without parents
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = MIS\ntemplate = parallel\ntree = true\n"
                         "k = 1\nseed = 0\n")
    assert main(["run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {cfg}:6: unknown key 'tree'\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_misspelt_key_is_a_config_error(tmp_path, capsys, command):
    # "phsae = 4" once ran the default phase 2 and wrote a VALID row
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = MIS\ntemplate = interleaved\nphsae = 4\n")
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"config error: {cfg}:6: unknown key 'phsae'\n")


def test_documented_and_benchmarked_keys_are_config_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.S | re.M)
    keys = {key for lang, text in blocks if not lang
            for key in re.findall(r"^(\w+) = ", text, re.M)}
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for configs in workloads.WORKLOADS.values():
        keys.update(key for cfg in configs for key in cfg)
    keys.update("k_rim" if name == "k" else name
                for _, names in graphs.FAMILIES.values() for name in names)
    assert {"graph", "k_range", "graph_file", "family", "id_scheme"} <= keys
    assert keys <= cli.CONFIG_KEYS


def test_readme_programs_are_the_registry():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = re.search(r"`program = <name>` runs a standalone program from\s+"
                       r"the registry: (.*?)\.\n", readme, re.S).group(1)
    names = re.findall(r"`([\w.]+)`", listed)
    assert sorted(names) == sorted(registry.PROGRAMS)


def test_readme_verify_example_is_valid(tmp_path, capsys, monkeypatch):
    """The config, graph file and outputs file that README gives for
    verify, in that order, and the verdict it promises."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = re.search(r"`verify` validates (.*?)\n`sanity`", readme,
                        re.S).group(1)
    config, graph, outputs = (text for _, text in re.findall(
        r"^```(\w*)\n(.*?)^```$", section, re.S | re.M))
    assert "prints `VALID`" in section
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "out.txt").write_text(outputs)
    assert main(["verify", "--config", _cfg(tmp_path, config)]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_wheel_without_k_rim_names_the_key(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = WHEEL_FK\nproblem = MIS\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: graph WHEEL_FK needs k_rim\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_program_of_another_problem_is_a_config_error(tmp_path, capsys,
                                                      command):
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = VERTEX_COLORING\nprogram = mm.base\n"
                         "k = 1\nseed = 0\n")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # raised before any row
    assert captured.err == ("config error: problem = VERTEX_COLORING: program "
                            "mm.base solves MAXIMAL_MATCHING\n")


def test_program_without_problem_runs(tmp_path, capsys):
    # without a problem key the program's own kind is validated
    cfg = _cfg(tmp_path, "graph = TREE\nn = 12\nprogram = mis.tree_gps\n"
                         "k = 1\nseed = 0\n")
    assert main(["run", "--config", cfg]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["problem"] == "VERTEX_COLORING" and cells["valid"] == "VALID"


@pytest.mark.parametrize("program, kind", [("ec.uniform", "EDGE_COLORING"),
                                           ("vc.linial", "VERTEX_COLORING"),
                                           ("mm.uniform", "MAXIMAL_MATCHING")])
def test_program_without_problem_is_measured_as_its_own_kind(
        tmp_path, capsys, program, kind):
    # predictions are corrupted solutions of the program's problem, and the
    # error measures are that problem's, with no MIS-only cells
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         f"program = {program}\nk = 2\nseed = 1\n")
    plan = Plan(cli.parse_config(cfg))
    assert plan.kind == kind
    assert main(["run", "--config", cfg]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    g = plan.instance(1)[0]
    p = measures.corrupt(kind, g, measures.reference(kind, g), 2, 1)
    report = measures.error_report(kind, g, p)
    assert (cells["eta1"], cells["eta2"]) == (str(report["eta1"]),
                                              str(report["eta2"]))
    assert cells["eta_bw"] == cells["eta_t"] == cells["eta_H"] == ""


def test_verify(tmp_path, capsys):
    g = line(4)
    (tmp_path / "g.txt").write_text(write_graph(g))
    (tmp_path / "good.txt").write_text("1 1\n2 0\n3 1\n4 0\n")
    (tmp_path / "bad.txt").write_text("1 1\n2 1\n3 0\n4 1\n")
    cfg = _cfg(tmp_path, f"problem = MIS\ngraph_file = {tmp_path}/g.txt\n"
                         f"outputs_file = {tmp_path}/good.txt\n")
    assert main(["verify", "--config", cfg]) == 0
    assert "VALID" in capsys.readouterr().out
    cfg = _cfg(tmp_path, f"problem = MIS\ngraph_file = {tmp_path}/g.txt\n"
                         f"outputs_file = {tmp_path}/bad.txt\n", "v2.cfg")
    assert main(["verify", "--config", cfg]) == 1
    assert "INDEPENDENCE" in capsys.readouterr().out


def test_verify_incomplete(tmp_path, capsys):
    g = line(3)
    (tmp_path / "g.txt").write_text(write_graph(g))
    (tmp_path / "o.txt").write_text("1 1\n2 0\n")
    cfg = _cfg(tmp_path, f"problem = MIS\ngraph_file = {tmp_path}/g.txt\n"
                         f"outputs_file = {tmp_path}/o.txt\n")
    assert main(["verify", "--config", cfg]) == 1
    assert "INCOMPLETE" in capsys.readouterr().out


def test_verify_edge_coloring_with_an_isolated_node(tmp_path, capsys):
    """Node 3 has no edge and so no line: valid, as a run's own check
    finds.  Node 2 without its line leaves edge 1-2 uncoloured."""
    (tmp_path / "g.txt").write_text("3 3\nV 3\n1 2\n")
    for lines, status, printed in (
            ("1 2 1\n2 1 1\n", 0, "VALID\n"),
            ("1 2 1\n", 1, "INCOMPLETE at 2: node 2 did not color every "
                           "incident edge\n")):
        (tmp_path / "o.txt").write_text(lines)
        cfg = _cfg(tmp_path, f"problem = EDGE_COLORING\n"
                             f"graph_file = {tmp_path}/g.txt\n"
                             f"outputs_file = {tmp_path}/o.txt\n")
        assert main(["verify", "--config", cfg]) == status
        assert capsys.readouterr().out == printed


@pytest.mark.parametrize("problem, graph, lines, message", [
    ("MIS", "3 3\n1 2\n2 3\n", "1 1\n1 0\n2 0\n3 1\n",
     "line 2: node 1 repeated"),
    ("MIS", "3 3\n1 2\n2 3\n", "1 1\n2 0\n3 1\n9 1\n",
     "line 4: node 9 is not in the graph"),
    ("EDGE_COLORING", "3 3\nV 3\n1 2\n", "1 2 1\n2 1 1\n# again\n1 2 2\n",
     "line 4: edge 1 2 repeated"),
    ("MIS", "3 3\n1 2\n2 3\n", "1 1\n2 0 5\n3 1\n",
     "line 2: bad prediction line '2 0 5'"),
    ("MIS", "3 3\n1 2\n2 3\n", "1 1\n2 x\n3 1\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
], ids=["repeated-node", "unknown-node", "repeated-edge", "extra-field",
        "non-integer-value"])
def test_verify_rejects_lines_without_meaning(tmp_path, capsys, problem,
                                              graph, lines, message):
    """A line that cannot be read, a second line for a node or edge end,
    or a line for a node outside the graph, is a config error naming the
    line, not a verdict."""
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "o.txt").write_text(lines)
    cfg = _cfg(tmp_path, f"problem = {problem}\ngraph_file = {tmp_path}/g.txt\n"
                         f"outputs_file = {tmp_path}/o.txt\n")
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


def test_verify_names_the_files_it_needs(tmp_path, capsys):
    for text, named in (("", "graph_file and outputs_file"),
                        ("graph_file = g.txt\n", "outputs_file")):
        cfg = _cfg(tmp_path, "problem = MIS\n" + text)
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: verify needs {named}\n"


def test_sanity_families(tmp_path, capsys):
    for family, n in (("MIS_LINE", 101), ("MM_LINE", 51),
                      ("VC_LINE", 51), ("EC_LINE", 51)):
        cfg = _cfg(tmp_path, f"family = {family}\nn = {n}\n",
                   f"{family}.cfg")
        assert main(["sanity", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out
    cfg = _cfg(tmp_path, "family = MIS_LINE\nn = 1\n", "tiny.cfg")
    assert main(["sanity", "--config", cfg]) == 0


def test_config_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg = _cfg(tmp_path, "this is not key value\n")
    assert main(["run", "--config", cfg]) == 2
    cfg = _cfg(tmp_path, "graph = NOPE\nn = 4\n", "g.cfg")
    assert main(["run", "--config", cfg]) == 2
    cfg = _cfg(tmp_path, "graph = LINE\nn = 4\nprogram = nope.prog\n", "p.cfg")
    assert main(["run", "--config", cfg]) == 2


@pytest.mark.parametrize("command, text, message", [
    ("sweep", "graph = LINE\nn = 4\nk_range = -2\n",
     "k_range = -2: k must be >= 0"),
    ("run", "graph = LINE\nn = 4\nproblem = X\n",
     "problem = X: unknown problem; known: MIS, MAXIMAL_MATCHING, "
     "VERTEX_COLORING, EDGE_COLORING"),
    ("run", "graph = LINE\nn = x\n",
     "n = x: invalid literal for int() with base 10: 'x'"),
    ("run", "graph = LINE\nn = 4\nseed_range = a\n",
     "seed_range = a: only sweep reads it; run reads k and seed"),
    ("run", "graph = LINE\nn = 4\nk_range = 0..2\n",
     "k_range = 0..2: only sweep reads it; run reads k and seed"),
    ("run", "graph = LINE\nn = 4\npattern = FOO\n",
     "pattern = FOO: unknown pattern; known: ALL_ONES, ALL_ZEROS, "
     "GRID_4BLOCK, MOD3_LINE"),
    ("run", "graph = LINE\nn = 5\nprogram = mis.greedy\ntemplate = sideways\n"
     "phase = 7\n", "template = sideways: a standalone program takes no template"),
    ("sweep", "graph = LINE\nn = 5\nprogram = mis.greedy\nphase = 7\n",
     "phase = 7: a standalone program takes no phase"),
    ("run", "graph = LINE\nn = 5\ntemplate = interleaved\nphase = 3\n",
     "phase = 3: interleaved greedy phases must be even"),
    ("run", "graph = LINE\nn = 5\ntemplate = interleaved\nphase = 0\n",
     "phase = 0: phase budget must be a positive multiple of the stage phase "
     "length"),
    ("run", "graph = LINE\nn = 4\nproblem = VERTEX_COLORING\n"
     "pattern = ALL_ONES\n",
     "pattern = ALL_ONES: patterns are defined for MIS predictions only"),
    ("sweep", "graph = LINE\nn = 4\npattern = MOD3_LINE\n",
     "pattern = MOD3_LINE: MOD3_LINE needs a rooted tree"),
    ("run", "graph = LINE\nn = 4\npattern = GRID_4BLOCK\n",
     "pattern = GRID_4BLOCK: GRID_4BLOCK needs matching rows and cols"),
    ("run", "graph = NOPE\nn = 4\n",
     "graph = NOPE: unknown graph family; known: LINE, WHEEL_FK, GRID, RANDOM, "
     "RANDOM_CONNECTED, TREE"),
    ("sweep", "graph = LINE\nn = 4\nid_scheme = X\n",
     "id_scheme = X: unknown id scheme; known: INCREASING, SEEDED_PERMUTATION"),
    ("run", "graph = LINE\nn = 5\ntemplate = simple\nphase = 7\n",
     "phase = 7: only the interleaved template reads it"),
    ("run", "graph = LINE\nn = 5\ntemplate = consecutive\nphase = 3\n",
     "phase = 3: only the interleaved template reads it"),
    ("run", "graph = LINE\nn = 5\ntemplate = sideways\n",
     "template = sideways: unknown template; known: simple, consecutive, "
     "interleaved, parallel"),
    ("sweep", "graph = TREE\nn = 5\ntemplate = consecutive\n",
     "template = consecutive: tree variant has no 'consecutive' template"),
    ("run", "graph = LINE\nn = 5\nproblem = VERTEX_COLORING\n"
     "template = parallel\n", "template = parallel: VERTEX_COLORING supports "
     "simple and consecutive templates only"),
    ("sanity", "family = X\n", "family = X: unknown sanity family; known: "
     "MIS_LINE, MM_LINE, VC_LINE, EC_LINE"),
    ("run", "graph = LINE\nn = 5\np = 0.3\n",
     "p = 0.3: graph LINE does not read it"),
    ("run", "graph = GRID\nrows = 2\ncols = 3\nk_rim = 9\n",
     "k_rim = 9: graph GRID does not read it"),
    ("sweep", "graph = RANDOM_CONNECTED\nn = 5\np = 0.3\nrows = 2\n",
     "rows = 2: graph RANDOM_CONNECTED does not read it"),
    ("run", "graph = LINE\nn = 5\nshape = line\n",
     "shape = line: graph LINE does not read it"),
    ("run", "graph = TREE\nn = 5\nshape = sideways\n",
     "shape = sideways: unknown tree shape; known: random, line"),
    ("run", "graph = GRID\nrows = 2\n", "graph GRID needs cols"),
], ids=["negative-k", "unknown-problem", "non-integer-n", "run-seed-range",
        "run-k-range", "unknown-pattern", "program-template", "program-phase",
        "odd-phase", "zero-phase", "pattern-problem", "pattern-tree",
        "pattern-grid", "unknown-graph", "unknown-id-scheme", "simple-phase",
        "consecutive-phase", "unknown-template", "tree-template",
        "problem-template", "unknown-sanity-family", "line-p", "grid-k-rim",
        "random-rows", "line-shape", "unknown-tree-shape", "grid-no-cols"])
def test_config_errors_name_their_key(tmp_path, capsys, command, text, message):
    cfg = _cfg(tmp_path, text)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_trace_flag_dumps_trace(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = LINE\nn = 3\nproblem = MIS\n"
                         "template = simple\n")
    assert main(["run", "--config", cfg, "--trace"]) == 0
    err = capsys.readouterr().err
    assert "TERMINATE" in err


def test_passing_sweep_builds_no_trace(tmp_path, monkeypatch):
    """Runs are simulated untraced; only a printed trace is built, by a
    replay of the run."""
    built = []

    class Counted(engine.TraceEvent):
        def __init__(self, *args):
            built.append(args)

    monkeypatch.setattr(engine, "TraceEvent", Counted)
    outcomes = []

    def recorded(plan, k, seed):
        result = run_one(plan, k, seed)
        outcomes.append(result[2])
        return result
    monkeypatch.setattr(cli, "run_one", recorded)
    text = ("graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
            "problem = MIS\ntemplate = consecutive\n")
    cfg = _cfg(tmp_path, text + "k_range = 0..3\nseed_range = 0..2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
    assert len(outcomes) == 12 and all(o.trace is None for o in outcomes)
    assert built == []
    cfg = _cfg(tmp_path, text)  # run rejects the sweep-only keys
    assert main(["run", "--config", cfg, "--trace", "--out",
                 str(tmp_path / "r.csv")]) == 0
    assert built  # the replay traces through the same TraceEvent


def test_replay_that_differs_raises():
    plan = Plan({"graph": "RANDOM_CONNECTED", "n": "10", "p": "0.3",
                 "problem": "MIS", "template": "simple"})
    _, _, outcome = run_one(plan, 2, 1)
    lines = cli.replay(plan, 2, 1, outcome)
    assert lines[-1].endswith(",TERMINATE,")
    node = min(outcome.outputs)
    outcome.outputs[node] = {"y": 1 - outcome.outputs[node]["y"]}
    with pytest.raises(RuntimeError, match=r"k=2, seed=1 .* outputs"):
        cli.replay(plan, 2, 1, outcome)


def _rows(csv_text):
    header, *rows = csv_text.strip().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_protocol_violation_is_a_failing_row(tmp_path, capsys):
    """A run that raises inside simulate writes its row with the error's
    code, prints the message and no trace, and exits 1."""
    cfg = _cfg(tmp_path, "graph = LINE\nn = 10\nprogram = mis.color_part2\n"
                         "k = 2\nseed = 0\n")
    for extra in ([], ["--trace"]):
        assert main(["run", "--config", cfg, *extra]) == 1
        out, err = capsys.readouterr()
        [row] = _rows(out)
        assert row["valid"] == "PROTOCOL_VIOLATION"
        assert row["eta1"] == "2"
        assert [row[c] for c in ("rounds", "bound_consistency",
                                 "bound_degrading", "bound_robust")] == [""] * 4
        assert err == ("ASSERTION FAILED (k=2, seed=0): PROTOCOL_VIOLATION: "
                       "stored coloring not proper: nodes 1 and 2\n")


def test_non_termination_fails_its_runs_not_the_sweep(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = RANDOM_CONNECTED\nn = 10\np = 0.3\n"
                         "problem = MIS\ntemplate = simple\nmax_rounds = 2\n"
                         "k_range = 0..1\nseed_range = 0..1\n")
    assert main(["sweep", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    rows = _rows(out)
    assert [(r["k"], r["seed"], r["valid"], r["rounds"]) for r in rows] == [
        (k, s, "NON_TERMINATION", "") for k in "01" for s in "01"]
    assert [r["eta1"] for r in rows] == ["0", "0", "3", "6"]
    lines = err.splitlines()
    assert len(lines) == 4 and all(
        re.fullmatch(r"ASSERTION FAILED \(k=\d, seed=\d\): NON_TERMINATION: "
                     r"\d+ nodes still active after 2 rounds", line)
        for line in lines)


def test_failing_fixed_pattern_sweep_repeats_each_seed(tmp_path, capsys,
                                                      monkeypatch):
    """A fixed-pattern sweep runs each seed once and repeats its row,
    assertion lines and trace for every k, as if each k had run."""
    text = ("graph = LINE\nn = 4\nproblem = MIS\nprogram = mis.base\n"
            "pattern = ALL_ZEROS\nk_range = 0..2\nseed_range = 0..1\n")
    plan = Plan(cli.parse_config(_cfg(tmp_path, text)))
    rows, err = [], []
    for k in range(3):
        for seed in range(2):
            row, failures, outcome = run_one(plan, k, seed)
            rows.append(row)
            err += cli._assertions(k, seed, failures)
            err += cli.replay(plan, k, seed, outcome)
    calls = []
    monkeypatch.setattr(cli, "run_one", lambda plan, k, seed: (
        calls.append((k, seed)) or run_one(plan, k, seed)))
    assert main(["sweep", "--config", _cfg(tmp_path, text)]) == 1
    out, got = capsys.readouterr()
    assert out == cli.format_csv(rows)
    assert got.splitlines() == err
    assert "INCOMPLETE" in got and "TERMINATE" in got
    assert calls == [(0, 0), (0, 1)]


def test_cli_imports_no_dataclasses():
    """Starting the CLI does not import dataclasses, which pulls in
    inspect, ast, dis and tokenize."""
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, predsync.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class _KeyErrorStage(Stage):
    """Five rounds; every node's program raises KeyError in round 2."""

    rounds = 5

    def process(self, ctx, t, inbox):
        if t == 2:
            return {}["missing"]
        return Step()


def test_program_error_is_a_failing_row_not_a_config_error(tmp_path, capsys,
                                                           monkeypatch):
    """A node program that raises KeyError mid-run fails its run: the row
    says PROGRAM_ERROR, no trace is printed, and the exit code is 1.  An
    unknown program name is still a config error."""
    monkeypatch.setitem(registry.PROGRAMS, "test.key_error",
                        ((_KeyErrorStage,), "MIS"))
    text = "graph = LINE\nn = 4\nprogram = test.key_error\nseed = 0\n"
    for command, extra in (("run", []), ("run", ["--trace"]), ("sweep", [])):
        # run rejects the sweep-only k_range
        cfg = _cfg(tmp_path, text + ("k_range = 0..1\n" if command == "sweep"
                                     else ""))
        assert main([command, "--config", cfg, *extra]) == 1
        out, err = capsys.readouterr()
        rows = _rows(out)
        assert [(r["valid"], r["rounds"]) for r in rows] == [
            ("PROGRAM_ERROR", "")] * len(rows)
        assert len(rows) == (2 if command == "sweep" else 1)
        lines = err.splitlines()
        assert len(lines) == len(rows) and all(re.fullmatch(
            rf"ASSERTION FAILED \(k={k}, seed=0\): PROGRAM_ERROR: KeyError: "
            r"'missing' \(at test_cli\.py:\d+\)", line)
            for k, line in enumerate(lines))
    cfg = _cfg(tmp_path, "graph = LINE\nn = 4\nprogram = nope.prog\n")
    assert main(["run", "--config", cfg]) == 2
    known = ", ".join(sorted(registry.PROGRAMS))
    assert capsys.readouterr().err == (
        f"config error: program = nope.prog: unknown program; known: {known}\n")


def test_max_rounds_below_one_is_a_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "graph = LINE\nn = 4\nproblem = MIS\n"
                         "template = simple\nmax_rounds = 0\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: max_rounds = 0: max_rounds must be >= 1\n")
