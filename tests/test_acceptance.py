"""Acceptance criteria.

One test per criterion, in order; each prints a single PASS line on
success (run pytest with -v or -rA to see them).  Criteria 10 and 12
aggregate over the runs performed by criteria 1-8, so this module keeps
shared accumulators and the tests must run in file order (pytest default).
"""

import math

from predsync import measures as M, mis, problems
from predsync.audit import audit_run
from predsync.engine import simulate
from predsync.graphs import (grid, line, line_tree, random_connected_graph,
                             random_tree, validate, wheel_fk, _rng)
from predsync.templates import build_template

from helpers import (diameter, even_rounds, program, value,
                     wheel_rim_nodes)
from reference import induced_subgraph, mu1, mu2

AUDITED_RUNS = []  # (label, extendability violations)
MEASURE_ROWS = []  # (eta1, eta2, eta_bw, eta_t or None)


def _passed(n, text):
    print(f"CRITERION {n}: PASS - {text}")


def _audit(label, kind, g, outcome, checkpoints):
    _, unextendable = audit_run(kind, g, outcome, checkpoints)
    AUDITED_RUNS.append((label, unextendable))


def _record(report):
    MEASURE_ROWS.append((report["eta1"], report.get("eta2"),
                         report.get("eta_bw"), report.get("eta_t")))


def test_criterion_01_consistency():
    templates = ("simple", "consecutive", "interleaved", "parallel")
    for seed in range(50):
        n = 5 + (seed * 7) % 36  # 5..40
        g = random_connected_graph(n, 0.25, seed)
        p = M.corrupt("MIS", g, M.reference("MIS", g), 0, 0)
        for tpl in templates:
            inst = build_template("MIS", tpl)
            out = simulate(g, inst.program, p, max_rounds=inst.max_rounds(g),
                           trace=True)
            assert out.total_rounds == 3, (tpl, seed, out.total_rounds)
            assert validate("MIS", g, out.solution("MIS", g)) is None
            _audit(f"c1/{tpl}/{seed}", "MIS", g, out,
                   inst.program.checkpoints(g, out.total_rounds))
    _passed(1, "all four MIS templates finish in exactly 3 rounds on 50 "
               "correct-prediction instances")


def test_criterion_02_simple_degradation():
    inst = build_template("MIS", "simple")
    for k in range(11):
        for seed in range(20):
            n = 6 + seed % 11  # <= 16
            g = random_connected_graph(n, 0.3, seed + 100 * k)
            p = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            report = M.error_report("MIS", g, p)
            _record(report)
            out = simulate(g, inst.program, p, trace=True)
            assert validate("MIS", g, out.solution("MIS", g)) is None
            assert out.total_rounds <= report["eta1"] + 3, (k, seed)
            assert out.total_rounds <= report["eta2"] + 4, (k, seed)
            _audit(f"c2/{k}/{seed}", "MIS", g, out,
                   inst.program.checkpoints(g, out.total_rounds))
    _passed(2, "simple template rounds <= eta1+3 and <= eta2+4 on a "
               "k x seed sweep of 220 runs")


def test_criterion_03_greedy_lemmas():
    for seed in range(200):
        n = 4 + seed % 13  # <= 16
        g = random_connected_graph(n, 0.3, seed)
        out = simulate(g, program("mis.greedy"), trace=True)
        assert validate("MIS", g, out.solution("MIS", g)) is None
        assert out.total_rounds <= min(mu1(g), mu2(g) + 1), seed
        _audit(f"c3/{seed}", "MIS", g, out, even_rounds(out))
    _passed(3, "greedy MIS rounds <= min(mu1, mu2+1) on 200 connected graphs")


def test_criterion_04_parallel_corollary():
    inst = build_template("MIS", "parallel")
    for k in range(9):
        for seed in range(10):
            n = 6 + seed  # <= 15
            g = random_connected_graph(n, 0.3, seed + 10 * k)
            p = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            report = M.error_report("MIS", g, p)
            _record(report)
            out = simulate(g, inst.program, p, max_rounds=inst.max_rounds(g),
                           trace=True)
            assert validate("MIS", g, out.solution("MIS", g)) is None
            r1 = inst.program.stages[1].length(g)  # the fused stage
            if report["eta2"] + 4 <= r1:
                assert out.total_rounds <= report["eta2"] + 4 + 2, (k, seed)
            else:
                assert out.total_rounds <= 3 + r1 + g.delta + 1, (k, seed)
            _audit(f"c4/{k}/{seed}", "MIS", g, out,
                   inst.program.checkpoints(g, out.total_rounds))
    _passed(4, "parallel template within eta2+4+2 inside the part-1 budget, "
               "else within 3+r1+delta+1")


def test_criterion_05_grid_pattern():
    g = grid(16, 16)
    p = M.reference("MIS", g, pattern="GRID_4BLOCK", rows=16, cols=16)
    report = M.error_report("MIS", g, p)
    assert report["eta1"] == 256 and report["eta_bw"] == 4
    inst = build_template("MIS", "simple")
    out = simulate(g, inst.program, p, trace=True)
    assert validate("MIS", g, out.solution("MIS", g)) is None
    _audit("c5", "MIS", g, out, inst.program.checkpoints(g, out.total_rounds))
    _passed(5, "16x16 grid block pattern gives eta1=256 and eta_bw=4")


def test_criterion_06_wheel_diameters():
    f8 = wheel_fk(8)
    assert diameter(f8) == 4
    assert diameter(induced_subgraph(f8, wheel_rim_nodes(8))) == 4 == 8 // 2
    f12 = wheel_fk(12)
    rim12 = diameter(induced_subgraph(f12, wheel_rim_nodes(12)))
    assert rim12 == 6 and rim12 > diameter(f12) == 4
    _passed(6, "wheel F_8 diameter 4 with rim diameter 4; F_12 rim diameter "
               "6 exceeds graph diameter 4")


def test_criterion_07_rooted_tree_line():
    t = line_tree(15)
    p = M.reference("MIS", t.graph, pattern="MOD3_LINE", tree=t)
    assert M.error_report("MIS", t.graph, p, t)["eta_t"] == 2
    out = simulate(t.graph, program("mis.tree_init_eager"), p, tree=t, trace=True)
    assert out.total_rounds == 2 and max(out.term_round.values()) == 2
    _audit("c7/init", "MIS", t.graph, out, [out.total_rounds])

    inst = build_template("MIS", "parallel", tree=True)
    init, fused = inst.program.stages[:2]
    checked_inside = 0
    for seed in range(20):
        tr = random_tree(5 + seed % 10, seed)
        g = tr.graph
        for k in (1, 3, 5):
            pk = M.corrupt("MIS", g, M.reference("MIS", g), k, seed)
            report = M.error_report("MIS", g, pk, tree=tr)
            _record(report)
            out = simulate(g, inst.program, pk, tree=tr,
                           max_rounds=inst.max_rounds(g), trace=True)
            assert validate("MIS", g, out.solution("MIS", g)) is None
            if out.total_rounds <= init.length(g) + fused.length(g):
                checked_inside += 1
                limit = math.ceil(report["eta_t"] / 2) + 5
                assert out.total_rounds <= limit, (seed, k)
            _audit(f"c7/{seed}/{k}", "MIS", g, out,
                   inst.program.checkpoints(g, out.total_rounds))
    assert checked_inside > 0
    _passed(7, "mod-3 line: eta_t=2 with all nodes done by round 2; tree "
               f"parallel within ceil(eta_t/2)+5 on {checked_inside} "
               "inside-part-1 runs")


def test_criterion_08_other_problems():
    cases = (
        ("MAXIMAL_MATCHING", "mm.uniform", lambda s: 3 * (s // 2), 0),
        ("VERTEX_COLORING", "vc.uniform", lambda s: s, 0),
        ("EDGE_COLORING", "ec.uniform",
         lambda s: max(1, 2 * s - 3), 1),  # one probe-round prologue
    )
    for kind, name, bound, prologue in cases:
        for seed in range(100):
            n = 4 + seed % 11  # <= 14
            g = random_connected_graph(n, 0.3, seed)
            prog = program(name)
            out = simulate(g, prog, trace=True)
            assert validate(kind, g, out.solution(kind, g)) is None, (kind, seed)
            assert out.total_rounds - prologue <= bound(g.n), (kind, seed)
            _audit(f"c8/{kind}/{seed}", kind, g, out,
                   prog.checkpoints(g, out.total_rounds))
    _passed(8, "matching within 3*floor(s/2), vertex coloring within s, edge "
               "coloring within 2s-3, each over 100 graphs, all valid")


def test_criterion_09_lower_bound_sanity():
    out = simulate(line(101), program("mis.greedy"), max_rounds=500)
    assert out.total_rounds >= 48
    for name in ("mm.uniform", "vc.uniform", "ec.uniform"):
        out = simulate(line(51), program(name), max_rounds=500)
        assert out.total_rounds >= 24, name
    _passed(9, "greedy MIS needs >= 48 rounds on the 101-line; matching, "
               "vertex and edge coloring need >= 24 on 51-lines")


def test_criterion_10_extendability_audit():
    assert len(AUDITED_RUNS) > 900
    offenders = [(label, msgs) for label, msgs in AUDITED_RUNS if msgs]
    assert offenders == []
    _passed(10, f"partial outputs extendable at every checkpoint of all "
                f"{len(AUDITED_RUNS)} audited runs")


def test_criterion_11_fault_tolerance():
    def per_round_colors(trace):
        by_round = {}
        for ev in trace:
            if ev.event != "SEND":
                continue
            msg = ev.value
            if isinstance(msg, tuple) and msg and msg[0] == "C":
                by_round.setdefault(ev.round, {})[ev.node] = msg[1]
        return by_round

    def check(g, outcome, label):
        for rnd, colors in per_round_colors(outcome.trace).items():
            for u, v in g.edges():
                if colors.get(u) is not None and colors.get(u) == colors.get(v):
                    raise AssertionError(f"{label}: round {rnd} edge {u},{v}")
        sol = {u: value(outcome, u) for u in g.nodes}
        for u, v in g.edges():
            if sol[u] is not None and sol[v] is not None:
                assert sol[u] != sol[v], (label, u, v)

    for seed in range(100):
        g = random_connected_graph(5 + seed % 10, 0.35, seed)
        budget = problems.linial_rounds(g.d, g.delta)
        r = _rng(seed, "crash-linial")
        sched = {}
        for u in sorted(g.nodes):
            if r.random() < 0.5:
                sched.setdefault(r.randrange(1, budget + 1), set()).add(u)
        out = simulate(g, program("vc.linial"), max_rounds=budget + 5,
                       crash_schedule=sched, trace=True)
        check(g, out, f"linial/{seed}")

    for seed in range(100):
        t = random_tree(5 + seed % 12, seed)
        g = t.graph
        budget = mis.gps_rounds(g.d)
        r = _rng(seed, "crash-gps")
        sched = {}
        for u in sorted(g.nodes):
            if r.random() < 0.5:
                sched.setdefault(r.randrange(1, budget + 1), set()).add(u)
        out = simulate(g, program("mis.tree_gps"), tree=t,
                       max_rounds=budget + 5, crash_schedule=sched, trace=True)
        check(g, out, f"gps/{seed}")
    _passed(11, "Linial and tree 3-coloring stay proper under 100 seeded "
                "crash schedules each")


def test_criterion_12_measure_relations():
    assert len(MEASURE_ROWS) > 250
    for eta1, eta2, eta_bw, eta_t in MEASURE_ROWS:
        if eta2 is not None:
            assert eta2 <= eta1
        if eta_bw is not None:
            assert eta_bw <= eta1
        if eta_t is not None and eta_bw is not None:
            assert eta_t <= eta_bw
    _passed(12, f"eta2 <= eta1, eta_bw <= eta1 and eta_t <= eta_bw across "
                f"all {len(MEASURE_ROWS)} recorded sweep rows")
