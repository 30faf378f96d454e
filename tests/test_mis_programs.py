"""MIS node programs: base, init, cleanup, greedy, u_bw, coloring part 2,
and the rooted-tree programs."""

import itertools

import pytest

from predsync import measures as M, mis
from predsync.audit import audit_run
from predsync.engine import ProtocolViolation, simulate
from predsync.graphs import (_assign_ids, build_graph, grid, line, line_tree,
                             random_connected_graph, random_tree, validate,
                             _rng)
from predsync.stages import StagedProgram

from helpers import even_rounds, program, undecided, value
from reference import (components, greedy_mis_rounds, induced_subgraph,
                       labelled_graphs, labelled_rooted_trees,
                       mm_uniform_rounds, mu1, mu2, partial_outputs,
                       snapshot_active, vc_uniform_rounds)


def _k(ids):
    ids = list(ids)
    return build_graph(ids, [(a, b) for i, a in enumerate(ids)
                             for b in ids[i + 1:]])


# base and init


def test_base_correct_predictions_output_prediction():
    g = line(5)
    p = {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
    out = simulate(g, program("mis.base"), p)
    assert out.total_rounds <= 3
    assert {u: value(out, u) for u in g.nodes} == p


def test_base_all_zero_line_is_empty():
    g = line(3)
    out = simulate(g, program("mis.base"), {1: 0, 2: 0, 3: 0})
    assert undecided(out, g) == {1, 2, 3}


def test_base_conflicting_edge_undecided():
    g = build_graph([1, 2], [(1, 2)])
    out = simulate(g, program("mis.base"), {1: 1, 2: 1})
    assert undecided(out, g) == {1, 2}


def test_init_breaks_ties_by_identifier():
    g = build_graph([3, 7], [(3, 7)])
    out = simulate(g, program("mis.init"), {3: 1, 7: 1})
    assert value(out, 7) == 1 and value(out, 3) == 0
    tri = _k([2, 5, 9])
    out = simulate(tri, program("mis.init"), {2: 1, 5: 1, 9: 1})
    assert value(out, 9) == 1 and value(out, 2) == 0 and value(out, 5) == 0


def test_init_extends_base():
    for seed in range(15):
        g = random_connected_graph(4 + seed % 9, 0.35, seed)
        p = M.corrupt("MIS", g, M.reference("MIS", g), 4, seed)
        base = simulate(g, program("mis.base"), p).outputs
        init = simulate(g, program("mis.init"), p).outputs
        for u in g.nodes:
            if base[u]:
                assert init[u] == base[u]


def test_init_joins_follow_the_rule_on_small_graphs():
    """The joins of round 2 are the rule evaluated from the predictions:
    base joins a prediction-1 node with no prediction-1 neighbor, init one
    whose prediction-1 neighbors all have smaller ids.  Over every 0/1
    prediction on every connected atlas graph on at most 5 nodes, under
    two seeded identifier permutations."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        if n > 5:
            break
        if not n or not nx.is_connected(a):
            continue
        for perm in range(2):
            ids, d = _assign_ids(n, "SEEDED_PERMUTATION", perm, None)
            g = build_graph(ids, [(ids[u], ids[v]) for u, v in a.edges()], d)
            for bits in itertools.product((0, 1), repeat=n):
                p = dict(zip(ids, bits))
                ones = {u for u in g.nodes if p[u] == 1}
                want = {
                    "base": {u for u in ones if not ones & g.neighbor_sets[u]},
                    "init": {u for u in ones
                             if all(v < u for v in ones & g.neighbor_sets[u])}}
                for rule, joined in want.items():
                    out = simulate(g, program(f"mis.{rule}"), p)
                    got = {u for r, u, slot in out.output_log
                           if r == 2 and out.outputs[u][slot] == 1}
                    assert got == joined, (rule, g.adjacency, p)
                    checked += 1
    # 1, 1, 2, 6 and 21 connected graphs on 1..5 nodes: 790 predictions
    assert checked == 2 * 2 * 790


def test_cleanup_star():
    star = build_graph([9, 1, 2, 3], [(9, 1), (9, 2), (9, 3)])

    # leaves know 9 joined (stage state persists via Ctx only inside one
    # program, so drive the cleanup with a prediction standing in for it)
    class Pre(mis.MisCleanupStage):
        def __init__(self, ctx):
            if ctx.view.id != 9:
                ctx.nbr_one.add(9)

    out = simulate(star, StagedProgram([Pre]), None)
    assert out.total_rounds == 1
    assert all(value(out, u) == 0 for u in (1, 2, 3))


# greedy


def test_greedy_line5():
    g = line(5)
    out = simulate(g, program("mis.greedy"), trace=True)
    assert out.total_rounds == 5
    assert {u for u in g.nodes if value(out, u) == 1} == {1, 3, 5}
    assert audit_run("MIS", g, out, even_rounds(out)) == (None, [])


def test_greedy_clique_and_single():
    out = simulate(_k(range(1, 7)), program("mis.greedy"))
    assert out.total_rounds == 2
    single = build_graph([4], [])
    out = simulate(single, program("mis.greedy"))
    assert out.total_rounds == 1 and value(out, 4) == 1


def test_greedy_even_round_zero_iff_one_neighbor():
    for seed in range(20):
        g = random_connected_graph(4 + seed % 10, 0.3, seed)
        out = simulate(g, program("mis.greedy"), trace=True)
        for rnd in range(2, out.total_rounds + 1, 2):
            y = {u: s.get("y") for u, s in partial_outputs(out, rnd).items()}
            for u in g.nodes:
                has_one = any(y.get(v) == 1 for v in g.neighbors(u))
                assert (y.get(u) == 0) == has_one, (seed, rnd, u)


def test_greedy_per_component_bound():
    for seed in range(40):
        g = random_connected_graph(4 + seed % 12, 0.3, seed)
        out = simulate(g, program("mis.greedy"))
        assert validate("MIS", g, out.solution("MIS", g)) is None
        assert out.total_rounds <= min(mu1(g), mu2(g) + 1)


def test_greedy_steady_progress():
    # at the end of every round r, every still-active component S satisfies
    # r + f(mu(S)) <= f(mu(G)) + 2 for f = id (mu1) and f = x+1 (mu2)
    for seed in range(15):
        g = random_connected_graph(5 + seed % 8, 0.35, seed)
        out = simulate(g, program("mis.greedy"), trace=True)
        for rnd in range(1, out.total_rounds + 1):
            active = snapshot_active(out, g, rnd)
            for s in components(induced_subgraph(g, active)):
                assert rnd + mu1(s) <= mu1(g) + 2
                assert rnd + mu2(s) + 1 <= mu2(g) + 1 + 2


# u_bw


def test_labelled_slices_hold_every_graph_and_rooted_tree():
    """labelled_graphs holds the connected labelled graphs (OEIS A001187)
    and labelled_rooted_trees the rooted labelled trees, n ** (n - 1)."""
    assert [len(labelled_graphs(n)) for n in range(1, 6)] == [1, 1, 4, 38, 728]
    assert [len(labelled_rooted_trees(n)) for n in range(1, 6)] == [
        n ** (n - 1) for n in range(1, 6)]
    assert sum(len(labelled_graphs(n)) for n in range(1, 6)) == 772
    assert sum(len(labelled_rooted_trees(n)) for n in range(1, 6)) == 701
    for n in range(1, 6):
        assert len({tuple(g.edges()) for g in labelled_graphs(n)}) == len(
            labelled_graphs(n))
        assert len({(tuple(t.graph.edges()), t.root)
                    for t in labelled_rooted_trees(n)}) == n ** (n - 1)


@pytest.mark.parametrize("name, model", [
    ("mis.greedy", greedy_mis_rounds), ("vc.uniform", vc_uniform_rounds),
    ("mm.uniform", mm_uniform_rounds),
], ids=["mis.greedy", "vc.uniform", "mm.uniform"])
def test_greedy_rounds_match_the_phase_model(name, model):
    """Each node of the standalone uniform program ends in the round that
    its phase model in reference gives: on every atlas graph on at most 6
    nodes, on every connected labelled graph on at most 5 nodes, and on
    seeded graphs with permuted identifiers."""
    nx = pytest.importorskip("networkx")
    graphs = [build_graph([u + 1 for u in a], [(u + 1, v + 1) for u, v in a.edges()])
              for a in nx.graph_atlas_g() if a.number_of_nodes() <= 6]
    for seed in range(10):
        graphs += [random_connected_graph(30, 0.15, seed),
                   line(25, "SEEDED_PERMUTATION", seed),
                   grid(5, 7, "SEEDED_PERMUTATION", seed)]
    for n in range(1, 6):
        graphs += labelled_graphs(n)
    phases = set()
    for g in graphs:
        out = simulate(g, program(name))
        want = model(g)
        assert out.term_round == want, sorted(g.edges())
        phases.add(max(want.values(), default=0))
    assert len(graphs) == 209 + 30 + 772 and max(phases) >= 8


def test_u_bw_grid_pattern():
    g = grid(16, 16)
    p = M.reference("MIS", g, pattern="GRID_4BLOCK", rows=16, cols=16)
    out = simulate(g, program("mis.u_bw"), p)
    assert validate("MIS", g, out.solution("MIS", g)) is None
    # color components have <= 4 nodes; one probe round plus two alternating
    # passes of the greedy bound
    assert out.total_rounds <= 1 + 2 * 4


def test_u_bw_all_black():
    g = line(6)
    out = simulate(g, program("mis.u_bw"), {u: 1 for u in g.nodes})
    assert validate("MIS", g, out.solution("MIS", g)) is None


# coloring part 2


def test_part2_path():
    g = line(3)
    out = simulate(g, program("mis.color_part2"), {1: 1, 2: 2, 3: 1})
    assert value(out, 1) == 1 and value(out, 3) == 1 and value(out, 2) == 0


def test_part2_clique_color1_wins_first():
    g = _k([1, 2, 3, 4])
    out = simulate(g, program("mis.color_part2"), {1: 2, 2: 1, 3: 3, 4: 4})
    assert value(out, 2) == 1 and out.term_round[2] == 2  # reveal + round 1
    assert all(value(out, u) == 0 for u in (1, 3, 4))


def test_part2_single_node():
    g = build_graph([5], [])
    out = simulate(g, program("mis.color_part2"), {5: 1})
    assert value(out, 5) == 1


def test_part2_rejects_improper_coloring():
    g = build_graph([1, 2], [(1, 2)])
    with pytest.raises(ProtocolViolation):
        simulate(g, program("mis.color_part2"), {1: 1, 2: 1})


def test_part2_combined_beats_mu2_bound():
    combined = StagedProgram([mis.RevealStage, mis.ColorPart2CombinedStage])
    for seed in range(15):
        g = random_connected_graph(4 + seed % 9, 0.4, seed)
        colors = M.solve("VERTEX_COLORING", g)
        out = simulate(g, combined, colors)
        assert validate("MIS", g, out.solution("MIS", g)) is None
        assert out.total_rounds <= 1 + mu2(g) + 1  # reveal + mu2(S)+1


# rooted-tree programs


def test_tree_init_mod3_line():
    t = line_tree(15)
    p = M.reference("MIS", t.graph, pattern="MOD3_LINE", tree=t)
    assert M.error_report("MIS", t.graph, p, t)["eta_t"] == 2
    out = simulate(t.graph, program("mis.tree_init_eager"), p, tree=t)
    assert out.total_rounds == 2
    assert max(out.term_round.values()) == 2


def test_tree_init_correct_predictions():
    for seed in range(10):
        t = random_tree(3 + seed, seed)
        p = M.corrupt("MIS", t.graph, M.reference("MIS", t.graph), 0, 0)
        out = simulate(t.graph, program("mis.tree_init"), p, tree=t)
        assert out.total_rounds == 3
        assert validate("MIS", t.graph, out.solution("MIS", t.graph)) is None


def test_tree_init_leaves_monochromatic_components():
    for seed in range(20):
        t = random_tree(4 + seed % 10, seed)
        p = M.corrupt("MIS", t.graph, M.reference("MIS", t.graph), 4, seed)
        out = simulate(t.graph, program("mis.tree_init"), p, tree=t)
        active = undecided(out, t.graph)
        for u in active:
            for v in t.graph.neighbors(u):
                if v in active:
                    assert p[u] == p[v], (seed, u, v)


def test_tree_uniform_paths():
    single = random_tree(1, 0)
    out = simulate(single.graph, program("mis.tree_uniform"), tree=single)
    assert out.total_rounds == 1
    t2 = line_tree(2)
    out = simulate(t2.graph, program("mis.tree_uniform"), tree=t2)
    assert out.total_rounds == 1
    assert value(out, 1) == 1 and value(out, 2) == 0
    t7 = line_tree(7)
    out = simulate(t7.graph, program("mis.tree_uniform"), tree=t7, trace=True)
    assert validate("MIS", t7.graph, out.solution("MIS", t7.graph)) is None
    assert out.total_rounds <= 2 * ((7 + 1) // 2)
    assert audit_run("MIS", t7.graph, out, even_rounds(out)) == (None, [])


def test_tree_uniform_random_trees():
    for seed in range(20):
        t = random_tree(3 + seed % 12, seed)
        out = simulate(t.graph, program("mis.tree_uniform"), tree=t, trace=True)
        assert validate("MIS", t.graph, out.solution("MIS", t.graph)) is None
        assert audit_run("MIS", t.graph, out, even_rounds(out)) == (None, [])


def test_gps_examples():
    t = random_tree(1, 0)
    out = simulate(t.graph, program("mis.tree_gps"), tree=t)
    assert value(out, next(iter(t.graph.nodes))) in (1, 2, 3)
    t2 = line_tree(2)
    out = simulate(t2.graph, program("mis.tree_gps"), tree=t2)
    assert value(out, 1) != value(out, 2)
    t200 = random_tree(200, 3, d=10 ** 6)
    budget = mis.gps_rounds(10 ** 6)
    out = simulate(t200.graph, program("mis.tree_gps"), tree=t200,
                   max_rounds=budget + 5)
    sol = {u: value(out, u) for u in t200.graph.nodes}
    assert all(c in (1, 2, 3) for c in sol.values())
    assert all(sol[u] != sol[v] for u, v in t200.graph.edges())
    assert out.total_rounds <= budget


def test_gps_fault_tolerance():
    for seed in range(25):
        t = random_tree(4 + seed % 12, seed)
        g = t.graph
        budget = mis.gps_rounds(g.d)
        r = _rng(seed, "gps-crash")
        sched = {}
        for u in sorted(g.nodes):
            if r.random() < 0.4:
                sched.setdefault(r.randrange(1, budget + 1), set()).add(u)
        out = simulate(g, program("mis.tree_gps"), tree=t,
                       max_rounds=budget + 5, crash_schedule=sched)
        sol = {u: value(out, u) for u in g.nodes}
        for u, v in g.edges():
            if sol[u] is not None and sol[v] is not None:
                assert sol[u] != sol[v], (seed, u, v)


def test_tree_part2():
    single = build_graph([5], [])
    out = simulate(single, program("mis.tree_part2"), {5: 2})
    assert value(out, 5) == 1 and out.term_round[5] == 2
    edgeless = build_graph([1, 2], [])
    out = simulate(edgeless, program("mis.tree_part2"), {1: 1, 2: 1})
    assert value(out, 1) == 1 and value(out, 2) == 1
    assert out.term_round[1] == 1
    t7 = line_tree(7)
    colors = {u: (i % 2) + 2 for i, u in enumerate(sorted(t7.graph.nodes))}
    out = simulate(t7.graph, program("mis.tree_part2"), colors)
    assert out.total_rounds == 2
    assert validate("MIS", t7.graph, out.solution("MIS", t7.graph)) is None
    with pytest.raises(ProtocolViolation):
        simulate(line(2), program("mis.tree_part2"), {1: 3, 2: 3})
