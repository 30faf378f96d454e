"""Template combinators: assembly checks, round bounds, checkpoints and the
parallel part-1 isolation property."""

import math
from pathlib import Path

import pytest

from predsync import measures as M, mis, problems
from predsync.audit import audit_run
from predsync.cli import BOUNDS, judge
from predsync.engine import (NodeView, NonTermination, default_max_rounds,
                             simulate)
from predsync.graphs import (PROBLEM_KINDS, _assign_ids, build_graph, grid,
                             line, random_connected_graph, random_graph,
                             random_tree, validate)
from predsync.stages import (ConfigError, InterleavedStage, ParallelStage,
                             Stage, StagedProgram, TruncatedStage)
from predsync.templates import TEMPLATES, build_template

from helpers import value


def _sums(inst, g, report):
    """The consistency, degrading and robust bounds of inst's account,
    each the sum of its terms' rounds, or None where it does not apply."""
    return tuple(None if terms is None else sum(n for _, n, _ in terms)
                 for terms in inst.account(g, report))


def test_build_template_errors():
    with pytest.raises(ConfigError):
        build_template("MIS", "sideways")
    with pytest.raises(ConfigError):
        build_template("NOPE", "simple")
    with pytest.raises(ConfigError):  # a parts row, but not a problem
        build_template("TREE", "simple")
    with pytest.raises(ConfigError):
        build_template("MIS", "interleaved", phase=3)
    with pytest.raises(ConfigError):
        build_template("MIS", "interleaved", phase=0)  # no block would end
    with pytest.raises(ConfigError):
        build_template("MIS", "consecutive", tree=True)
    with pytest.raises(ConfigError):
        build_template("VERTEX_COLORING", "parallel")
    with pytest.raises(TypeError):  # part 1 sets its own budget r1
        build_template("MIS", "parallel", r1=lambda v: 4)


# initializations longer than c, as (rounds, c): the cause of the EC and
# tree MIS simple templates' degradation failures (ROADMAP item 3)
_LONG_INITS = {"EDGE_COLORING": (2, 1), "tree MIS": (4, 3)}


def test_initializations_last_at_most_c_rounds():
    """The first stage of every template, its initialization, lasts at most
    c rounds, except in _LONG_INITS.  A new exception fails, and so does a
    fixed one, so the table changes only on purpose."""
    long, built = {}, 0
    for problem in PROBLEM_KINDS:
        for tree in (False, True) if problem == "MIS" else (False,):
            for template in TEMPLATES:
                try:
                    t = build_template(problem, template, tree=tree)
                except ConfigError:  # the problem has no such template
                    continue
                built += 1
                rounds = t.program.stages[0].rounds
                if rounds > t.c:
                    long.setdefault("tree MIS" if tree else problem,
                                    set()).add((rounds, t.c))
    assert built == 4 + 2 + 3 * 2
    assert long == {name: {pair} for name, pair in _LONG_INITS.items()}


def test_parallel_requires_fault_tolerant_part1():
    with pytest.raises(ConfigError):
        ParallelStage(mis.GreedyStage, mis.GreedyStage, lambda v: 4)


def test_simple_template_k6_all_ones():
    k6 = build_graph(range(1, 7),
                     [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    inst = build_template("MIS", "simple")
    out = simulate(k6, inst.program, {u: 1 for u in k6.nodes})
    # the identifier rule lets node 6 join during initialization, so the run
    # ends in 3 rounds, well inside eta2 + 4 = 6
    assert out.total_rounds == 3
    assert value(out, 6) == 1


def test_consecutive_truncation_branch():
    # force a tiny uniform budget so the run must fall through cleanup into
    # the reference, and check the robust bound
    g = random_connected_graph(12, 0.3, 3)
    p = M.corrupt("MIS", g, M.reference("MIS", g), 12, 0)
    rep = M.error_report("MIS", g, p)
    r = lambda v: 2
    inst = build_template("MIS", "consecutive", r=r)
    out = simulate(g, inst.program, p)
    assert validate("MIS", g, out.solution("MIS", g)) is None
    assert out.total_rounds <= _sums(inst, g, rep)[2]
    cps = inst.program.checkpoints(g, out.total_rounds)
    assert audit_run("MIS", g, out, cps) == (None, [])


def test_consecutive_fallback_on_small_graphs():
    """With the truncation budget r forced to 1..3, consecutive runs leave
    the truncated stage for the clean-up and the reference.  Every
    connected atlas graph on at most 5 nodes (seeded identifiers), every
    problem, solve-then-corrupt predictions for k = 0..n and seeds 0..1:
    each run is valid and extendable at every checkpoint, and each problem
    has runs that end past the truncated stage.  The robust bound is not
    checked: c + 2 r assumes r covers the reference's rounds."""
    nx = pytest.importorskip("networkx")
    past = dict.fromkeys(("MIS", "MAXIMAL_MATCHING", "VERTEX_COLORING",
                          "EDGE_COLORING"), 0)
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if n > 5:
            break
        if n == 0 or not nx.is_connected(a):
            continue
        ids, d = _assign_ids(n, "SEEDED_PERMUTATION", 0, None)
        g = build_graph(ids, [(ids[u], ids[v]) for u, v in a.edges()], d)
        for kind in past:
            ref = M.reference(kind, g)
            for r in (1, 2, 3):
                program = build_template(kind, "consecutive",
                                         r=lambda v, r=r: r).program
                init, truncated = program.lengths(g)[:2]
                for k in range(n + 1):
                    for seed in (0, 1):
                        out = simulate(g, program, M.corrupt(kind, g, ref, k, seed))
                        case = (kind, r, k, seed, sorted(g.edges()))
                        assert validate(kind, g, out.solution(kind, g)) is None, case
                        assert audit_run(kind, g, out, program.checkpoints(
                            g, out.total_rounds)) == (None, []), case
                        past[kind] += out.total_rounds > init + truncated
    assert all(past.values()), past


def test_consecutive_inside_uniform_branch():
    g = random_connected_graph(12, 0.3, 3)
    p = M.corrupt("MIS", g, M.reference("MIS", g), 2, 1)
    rep = M.error_report("MIS", g, p)
    inst = build_template("MIS", "consecutive")
    out = simulate(g, inst.program, p)
    assert validate("MIS", g, out.solution("MIS", g)) is None
    # inside the uniform branch the run ends within c + f, the simple
    # template's degrading bound
    simple = build_template("MIS", "simple")
    assert out.total_rounds <= _sums(simple, g, rep)[1]


def test_interleaved_round_accounting():
    for seed in range(10):
        g = random_connected_graph(10, 0.35, seed)
        for k in (0, 3, 10):
            p = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            rep = M.error_report("MIS", g, p)
            inst = build_template("MIS", "interleaved")
            out = simulate(g, inst.program, p)
            assert validate("MIS", g, out.solution("MIS", g)) is None
            _, degrading, robust = _sums(inst, g, rep)
            assert out.total_rounds <= degrading
            assert out.total_rounds <= robust
            cps = inst.program.checkpoints(g, out.total_rounds)
            assert audit_run("MIS", g, out, cps) == (None, [])


def test_checkpoint_lists():
    g = random_connected_graph(8, 0.4, 2)
    simple = build_template("MIS", "simple")
    pts = simple.program.checkpoints(g, 9)
    assert 3 in pts and 9 in pts and 5 in pts and 4 not in pts
    inter = build_template("MIS", "interleaved")
    pts = inter.program.checkpoints(g, 9)
    assert pts[0] == 3 and all(b - a == 2 for a, b in zip(pts, pts[1:]))


def test_interleaved_checkpoints_match_block_formula():
    """An interleaved run is extendable at the end of its initialization
    and of every block after it, and at its last round."""
    g = line(3)
    for init_len in range(1, 6):
        for phase in (2, 4, 6):
            init = type("Init", (Stage,), {"rounds": init_len})
            program = StagedProgram([init, InterleavedStage(
                mis.GreedyStage, mis.GreedyMinStage, phase)])
            for total in range(41):
                want = sorted(set(range(init_len, total, phase)) | {total})
                assert program.checkpoints(g, total) == want, (
                    init_len, phase, total)


class _CountedStage:
    """Idle for delta + 1 rounds (open-ended when open); records the
    (n, d, delta) of every length call."""

    phase_len = None
    fault_tolerant = False

    def __init__(self, open_ended=False):
        self.open_ended = open_ended
        self.calls = []

    def length(self, view):
        self.calls.append((view.n, view.d, view.delta))
        return None if self.open_ended else view.delta + 1

    def __call__(self, ctx):
        return Stage(ctx)


def test_stage_lengths_computed_once_per_graph():
    first, second = _CountedStage(), _CountedStage()
    program = StagedProgram([first, second])
    path = line(6)
    star = build_graph(range(1, 6), [(1, v) for v in range(2, 6)])
    out = simulate(path, program)
    assert out.total_rounds == 3 + 3
    assert first.calls == second.calls == [(6, 6, 2)]  # not once per node
    out = simulate(star, program)
    assert out.total_rounds == 5 + 5  # the star's own delta
    assert first.calls == second.calls == [(6, 6, 2), (5, 5, 4)]
    assert program.checkpoints(star, 10) == [5, 10]  # no further call
    assert len(first.calls) == 2


def test_interleaved_init_length_computed_once_per_graph():
    init = _CountedStage()
    program = StagedProgram([init, InterleavedStage(
        mis.GreedyStage, mis.GreedyMinStage, 2)])
    path = line(6)
    star = build_graph(range(1, 6), [(1, v) for v in range(2, 6)])
    out = simulate(path, program)
    assert validate("MIS", path, out.solution("MIS", path)) is None
    assert init.calls == [(6, 6, 2)]  # not once per node
    out = simulate(star, program)
    assert validate("MIS", star, out.solution("MIS", star)) is None
    assert init.calls == [(6, 6, 2), (5, 5, 4)]
    assert program.checkpoints(star, 9) == [5, 7, 9]  # no further call
    assert len(init.calls) == 2


def test_only_the_final_stage_may_be_open_ended():
    program = StagedProgram([_CountedStage(open_ended=True), _CountedStage()])
    with pytest.raises(ConfigError, match="only the final stage may be open-ended"):
        simulate(line(3), program)
    last_open = StagedProgram([_CountedStage(), _CountedStage(open_ended=True)])
    with pytest.raises(NonTermination):  # an idle open stage never ends
        simulate(line(3), last_open, max_rounds=6)


def test_the_final_stage_lasts_a_round():
    """The driver stops a node in the last round of a fixed final stage,
    so a program needs one that has a round."""
    empty = TruncatedStage(mis.GreedyStage, lambda v: 0)
    for stages in ([], [mis.MisInitStage, empty]):
        with pytest.raises(ConfigError, match="a program needs a final stage "
                                              "of a round or more"):
            simulate(line(3), StagedProgram(stages))
    out = simulate(line(3), StagedProgram([empty, mis.GreedyStage]))
    assert out.total_rounds == 3  # a stage of no rounds may come first


def test_a_node_is_one_slotted_object():
    """What StagedProgram.start returns has no __dict__, so a new per-node
    field has to be added as a deliberate slot."""
    view = NodeView(1, (2,), 2, 2, 1, 0)
    for template in ("simple", "consecutive", "interleaved", "parallel"):
        node = build_template("MIS", template).program.start(view)
        assert not hasattr(node, "__dict__"), template


def _r_subchannel_sends(out, lo, hi):
    """Part-1 ("C", color) messages inside fused rounds lo..hi, keyed by
    (relative round, sender, target)."""
    sends = {}
    for rnd, node, event, target, msg in out.events():
        if event != "SEND" or not lo <= rnd <= hi:
            continue
        if isinstance(msg, dict) and msg.get("R") is not None:
            sends[(rnd - lo + 1, node, target)] = msg["R"]
    return sends


def test_parallel_part1_isolation():
    # part 1 must behave exactly as if run alone with the uniform-terminated
    # nodes crash-scheduled
    for seed in range(6):
        g = random_connected_graph(9, 0.35, seed)
        p = {u: 0 for u in g.nodes}  # init terminates nobody
        inst = build_template("MIS", "parallel")
        out = simulate(g, inst.program, p, max_rounds=inst.max_rounds(g))
        init_len, r1 = (s.length(g) for s in inst.program.stages[:2])
        fused = _r_subchannel_sends(out, init_len + 1, init_len + r1)

        crashes = {}
        for u, t in out.term_round.items():
            if init_len < t <= init_len + r1:
                crashes.setdefault(t - init_len, set()).add(u)
        alone = StagedProgram([problems.LinialPart1Stage])
        ref = simulate(g, alone, crash_schedule=crashes,
                       max_rounds=r1 + 5)
        lone = {}
        for rnd, node, event, target, msg in ref.events():
            if event != "SEND":
                continue
            lone[(rnd, node, target)] = msg
        shared = set(fused) & set(lone)
        assert shared, "no overlapping part-1 traffic to compare"
        for key in shared:
            assert fused[key] == lone[key], (seed, key)
        # every part-1 message in the fused run appears in the isolated run
        assert set(fused) <= set(lone)


def test_tree_parallel_bounds():
    for seed in range(10):
        t = random_tree(4 + seed, seed)
        g = t.graph
        inst = build_template("MIS", "parallel", tree=True)
        init, fused = inst.program.stages[:2]
        for k in (0, 2, 5):
            p = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            rep = M.error_report("MIS", g, p, tree=t)
            out = simulate(g, inst.program, p, tree=t,
                           max_rounds=inst.max_rounds(g))
            assert validate("MIS", g, out.solution("MIS", g)) is None
            assert out.total_rounds <= _sums(inst, g, rep)[2]
            if out.total_rounds <= init.length(g) + fused.length(g):
                assert out.total_rounds <= -(-rep["eta_t"] // 2) + 5
            cps = inst.program.checkpoints(g, out.total_rounds)
            assert audit_run("MIS", g, out, cps) == (None, [])


def test_other_problem_templates():
    for kind in ("MAXIMAL_MATCHING", "VERTEX_COLORING", "EDGE_COLORING"):
        for seed in range(6):
            g = random_connected_graph(9, 0.35, seed)
            for tpl in ("simple", "consecutive"):
                inst = build_template(kind, tpl)
                for k in (0, 4):
                    p = M.corrupt(kind, g, M.reference(kind, g), k, seed)
                    rep = M.error_report(kind, g, p)
                    out = simulate(g, inst.program, p,
                                   max_rounds=inst.max_rounds(g))
                    assert validate(kind, g, out.solution(kind, g)) is None
                    consistency, degrading, robust = judge(
                        inst.account(g, rep), out.total_rounds, [])
                    if k == 0:
                        assert consistency == "true"
                    assert "true" in (degrading, robust)


# reference: each template's round bounds written out term by term, apart
# from the stage lengths that TemplateInstance.account reads them from;
# problem -> (c, consecutive truncation budget r(g), clean-up rounds)
_TERMS = {
    "MIS": (3, lambda g: g.n + g.n % 2, 1),
    "MAXIMAL_MATCHING": (2, lambda g: 3 * ((g.n + 1) // 2), 1),
    "VERTEX_COLORING": (2, lambda g: g.n, 0),
    "EDGE_COLORING": (1, lambda g: 2 * g.n, 1),
}


def _even(x):
    return x + x % 2


def _reference_bounds(problem, template, options, g, f):
    """(degrading, robust, max_rounds) of a run whose error budget is f."""
    c, r, cleanup = _TERMS[problem]
    base = default_max_rounds(g)
    if template == "simple":
        return c + f, None, base
    if template == "consecutive":
        return c + 2 * f, c + 2 * r(g) + 2 * cleanup, base
    if template == "interleaved":
        phase = options.get("phase", 2)
        return c + 2 * f, c + 2 * max(1, math.ceil(f / phase)) * phase, base
    if options.get("tree"):  # no clean-up and no reveal stage
        init, r1, reveal, part2 = 4, _even(mis.gps_rounds(g.d)), 0, 2
    else:  # no clean-up stage
        init, reveal, part2 = 3, 1, max(1, g.delta)
        r1 = _even(problems.linial_rounds(g.d, g.delta))
    degrading = c + f + 2 if r1 >= f else None
    return degrading, init + r1 + reveal + part2, base + r1 + part2 + 10


def _formula_cases():
    """(cases, graphs) of the two reference-formula tests: each case is a
    (problem, template, build_template options) to build on every graph."""
    cases = [(kind, tpl, {}) for kind in _TERMS
             for tpl in ("simple", "consecutive")]
    cases += [("MIS", "interleaved", {"phase": ph}) for ph in (2, 4, 6)]
    cases += [("MIS", "parallel", {}), ("MIS", "simple", {"tree": True}),
              ("MIS", "parallel", {"tree": True})]
    graphs = [random_graph(14, 0.3, 2), random_connected_graph(20, 0.3, 5),
              line(30), grid(4, 5), random_tree(25, 3).graph]
    return cases, graphs


def test_bounds_match_reference_formulas():
    cases, graphs = _formula_cases()
    inapplicable = 0
    for kind, tpl, options in cases:
        inst = build_template(kind, tpl, **options)
        for g in graphs:
            for eta1 in range(43):
                for eta2 in (None, 0, eta1 // 2, eta1):
                    report = {"eta1": eta1, "eta2": eta2}
                    want = _reference_bounds(kind, tpl, options, g,
                                             inst.f(report)[1])
                    consistency, *got = _sums(inst, g, report)
                    got = tuple(got) + (inst.max_rounds(g),)
                    assert got == want, (kind, tpl, options, g.n, report)
                    assert consistency == (None if eta1 else _TERMS[kind][0])
                    inapplicable += want[0] is None
    assert inapplicable  # the parallel r1 >= f rule was exercised


def test_verdicts_match_reference_formulas():
    """The three bound cells that cli.judge makes of a template's account,
    over the cases and graphs of test_bounds_match_reference_formulas, at
    one round below, at and above each bound and c; "" where a bound does
    not apply.  Each broken bound has one line, in BOUNDS order, whose sum
    is the bound and whose slack is the bound minus the rounds."""
    cases, graphs = _formula_cases()
    seen = set()
    for kind, tpl, options in cases:
        inst = build_template(kind, tpl, **options)
        c = _TERMS[kind][0]
        for g in graphs:
            for eta1 in range(43):
                for eta2 in (None, 0, eta1 // 2, eta1):
                    report = {"eta1": eta1, "eta2": eta2}
                    want = _reference_bounds(kind, tpl, options, g,
                                             inst.f(report)[1])[:2]
                    near = {c, *(b for b in want if b is not None)}
                    for rounds in {x + d for x in near for d in (-1, 0, 1)}:
                        cells = ["" if eta1 else str(rounds == c).lower()]
                        cells += ["" if b is None else str(rounds <= b).lower()
                                  for b in want]
                        lines = []
                        got = judge(inst.account(g, report), rounds, lines)
                        assert got == cells, (kind, tpl, options, g.n,
                                              report, rounds)
                        seen.update(enumerate(got))
                        broken = [(name, bound) for name, bound, cell
                                  in zip(BOUNDS, (c, *want), cells)
                                  if cell == "false"]
                        assert len(lines) == len(broken)
                        for line, (name, bound) in zip(lines, broken):
                            head, _, slack = line.rpartition(", slack ")
                            assert head.startswith(
                                f"{name} violated: {rounds} rounds "), line
                            assert f" {bound} = " in head, line
                            assert int(slack) == bound - rounds, line
    # every cell was true, false and inapplicable somewhere
    assert seen == {(i, v) for i in range(3) for v in ("true", "false", "")}


def test_readme_term_table_matches_account():
    """README's table of bound terms, as (term, row, source), is the set
    that the accounts of every buildable (problem, template, tree) yield
    over a few graphs and reports.  An f term's name is read up to its
    parenthesis, where the measure it read is written."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("## Round bounds", 1)[1].split("\n\n| term |")[1]
    listed = set()
    for text in table.split("\n\n")[0].splitlines()[2:]:
        term, _, rows, source = (c.strip() for c in text.strip("|").split("|"))
        listed |= {(term.strip("`"), row, source) for row in rows.split(", ")}
    names = {"MIS": "MIS", "MAXIMAL_MATCHING": "MM", "VERTEX_COLORING": "VC",
             "EDGE_COLORING": "EC"}
    yielded = set()
    for problem in PROBLEM_KINDS:
        for tree in (False, True) if problem == "MIS" else (False,):
            row = "tree MIS" if tree else names[problem]
            for template in TEMPLATES:
                try:
                    inst = build_template(problem, template, tree=tree)
                except ConfigError:  # the problem has no such template
                    continue
                for g in (line(7), random_connected_graph(12, 0.3, 1)):
                    for eta1, eta2 in ((0, 0), (1, None), (6, 1), (6, 9)):
                        report = {"eta1": eta1, "eta2": eta2}
                        for terms in inst.account(g, report):
                            for term, rounds, source in terms or ():
                                assert isinstance(rounds, int) and rounds >= 0
                                yielded.add((term.split("(")[0], row, source))
    assert yielded == listed
