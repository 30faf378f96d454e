"""Maximal matching, vertex coloring, Linial coloring and edge coloring."""

import pytest

from predsync import measures as M, mis, problems
from predsync.audit import audit_run
from predsync.engine import simulate
from predsync.graphs import (build_graph, line, random_connected_graph,
                             random_tree, validate, _rng)
from predsync.templates import build_template

from helpers import program, undecided, value


def _k(ids):
    ids = list(ids)
    return build_graph(ids, [(a, b) for i, a in enumerate(ids)
                             for b in ids[i + 1:]])


# maximal matching


def test_mm_base_correct_two_rounds():
    g = line(4)
    p = {1: 2, 2: 1, 3: 4, 4: 3}
    out = simulate(g, program("mm.base"), p)
    assert out.total_rounds == 2
    assert {u: value(out, u) for u in g.nodes} == p


def test_mm_base_half_prediction_undecided():
    g = build_graph([1, 2], [(1, 2)])
    out = simulate(g, program("mm.base"), {1: 2, 2: None})
    assert undecided(out, g) == {1, 2}


def test_mm_base_isolated_bot():
    g = build_graph([7], [])
    out = simulate(g, program("mm.base"), {7: None})
    assert value(out, 7) is None and out.total_rounds == 2


def test_mm_init_bot_despite_prediction():
    # 1-2 matched; 3 predicts 2 but all of 3's neighbors got matched
    g = line(3)
    out = simulate(g, program("mm.init"), {1: 2, 2: 1, 3: 2})
    assert value(out, 1) == 2 and value(out, 2) == 1 and value(out, 3) is None


def test_mm_init_rejects_non_neighbor_partner():
    g = line(3)
    with pytest.raises(ValueError):
        simulate(g, program("mm.init"), {1: 3, 2: None, 3: 1})


def test_mm_uniform_examples():
    e = build_graph([1, 2], [(1, 2)])
    out = simulate(e, program("mm.uniform"))
    assert out.total_rounds == 3 and value(out, 1) == 2
    iso = build_graph([4], [])
    out = simulate(iso, program("mm.uniform"))
    assert value(out, 4) is None and out.total_rounds == 1
    p3 = line(3)
    out = simulate(p3, program("mm.uniform"))
    assert out.total_rounds == 3
    assert validate("MAXIMAL_MATCHING", p3,
                    out.solution("MAXIMAL_MATCHING", p3)) is None


def test_mm_uniform_bound_and_validity():
    for seed in range(40):
        g = random_connected_graph(4 + seed % 11, 0.3, seed)
        prog = program("mm.uniform")
        out = simulate(g, prog, trace=True)
        sol = out.solution("MAXIMAL_MATCHING", g)
        assert validate("MAXIMAL_MATCHING", g, sol) is None
        assert out.total_rounds <= 3 * (g.n // 2)
        cps = prog.checkpoints(g, out.total_rounds)
        assert audit_run("MAXIMAL_MATCHING", g, out, cps) == (None, [])


# vertex coloring


def test_vc_base_and_init():
    g = line(3)
    out = simulate(g, program("vc.base"), {1: 1, 2: 2, 3: 1})
    assert out.total_rounds == 2
    assert [value(out, u) for u in (1, 2, 3)] == [1, 2, 1]
    pair = build_graph([3, 7], [(3, 7)])
    out = simulate(pair, program("vc.init"), {3: 1, 7: 1})
    assert value(out, 7) == 1 and undecided(out, pair) == {3}
    with pytest.raises(ValueError):
        simulate(pair, program("vc.init"), {3: 0, 7: 1})


def test_vc_uniform_examples():
    single = build_graph([1], [])
    out = simulate(single, program("vc.uniform"))
    assert out.total_rounds == 1 and value(out, 1) == 1
    k4 = _k([1, 2, 3, 4])
    out = simulate(k4, program("vc.uniform"))
    assert out.total_rounds == 4
    assert sorted(value(out, u) for u in k4.nodes) == [1, 2, 3, 4]


def test_vc_uniform_bound_and_palette_invariant():
    for seed in range(40):
        g = random_connected_graph(4 + seed % 11, 0.35, seed)
        prog = program("vc.uniform")
        out = simulate(g, prog, trace=True)
        sol = out.solution("VERTEX_COLORING", g)
        assert validate("VERTEX_COLORING", g, sol) is None
        assert out.total_rounds <= g.n
        cps = prog.checkpoints(g, out.total_rounds)
        assert audit_run("VERTEX_COLORING", g, out, cps) == (None, [])


# Linial-style coloring


def test_linial_small_and_huge_d():
    g = line(5)
    out = simulate(g, program("vc.linial"), max_rounds=200)
    assert validate("VERTEX_COLORING", g, out.solution("VERTEX_COLORING", g)) is None
    edgeless = build_graph([1, 2, 3], [])
    out = simulate(edgeless, program("vc.linial"), max_rounds=10)
    assert all(value(out, u) == 1 for u in edgeless.nodes)
    g50 = line(50, id_scheme="SEEDED_PERMUTATION", seed=2, d=10 ** 9)
    budget = problems.linial_rounds(10 ** 9, 2)
    out = simulate(g50, program("vc.linial"), max_rounds=budget + 5)
    assert validate("VERTEX_COLORING", g50,
                    out.solution("VERTEX_COLORING", g50)) is None
    assert out.total_rounds <= budget


def test_linial_budget_monotone_enough():
    """The parallel template's part-1 budget is part 1's length rounded up
    to an even number of rounds, for MIS and for rooted-tree MIS."""
    rounded = 0
    for seed in range(6):
        g = random_connected_graph(6 + 3 * seed, 0.3, seed)
        t = random_tree(6 + 3 * seed, seed)
        for rounds, tree, graph in (
                (problems.linial_rounds(g.d, g.delta), False, g),
                (mis.gps_rounds(t.graph.d), True, t.graph)):
            program = build_template("MIS", "parallel", tree=tree).program
            r1 = program.lengths(graph)[1]
            assert r1 % 2 == 0 and r1 - rounds in (0, 1), (seed, tree)
            rounded += r1 > rounds
    assert rounded  # some part 1 has an odd length
    assert problems.linial_rounds(5, 0) == 1


def test_linial_fault_tolerance():
    for seed in range(25):
        g = random_connected_graph(4 + seed % 10, 0.4, seed)
        budget = problems.linial_rounds(g.d, g.delta)
        r = _rng(seed, "linial-crash")
        sched = {}
        for u in sorted(g.nodes):
            if r.random() < 0.4:
                sched.setdefault(r.randrange(1, budget + 1), set()).add(u)
        out = simulate(g, program("vc.linial"), max_rounds=budget + 5,
                       crash_schedule=sched)
        sol = {u: value(out, u) for u in g.nodes}
        for u, v in g.edges():
            if sol[u] is not None and sol[v] is not None:
                assert sol[u] != sol[v], (seed, u, v)


# edge coloring


def _ec_correct(g):
    return M.corrupt("EDGE_COLORING", g, M.reference("EDGE_COLORING", g), 0, 0)


def test_ec_base_correct_one_round():
    g = line(4)
    p = _ec_correct(g)
    out = simulate(g, program("ec.base"), p)
    assert max(out.term_round.values()) <= 2
    assert all(out.term_round[u] == 1 for u in g.nodes if g.adjacency[u])
    assert validate("EDGE_COLORING", g, out.solution("EDGE_COLORING", g)) is None


def test_ec_base_clashing_predictions_stay_uncolored():
    g = line(3)  # edges (1,2) and (2,3) both predicted color 1 at node 2
    p = {1: {2: 1}, 2: {1: 1, 3: 1}, 3: {2: 1}}
    out = simulate(g, program("ec.base"), p)
    assert undecided(out, g) == {1, 2, 3}


def test_ec_edge_state_is_built_only_where_an_edge_is_left(monkeypatch):
    """A node whose edges the predictions all color stops in round 1
    without edge state; any other node builds it with palettes for its
    uncolored edges only."""
    first = {}  # node -> (palette edges, uncolored edges) when first built
    real = problems._edge_state

    def recorded(ctx, *args):
        st = real(ctx, *args)
        first.setdefault(ctx.view.id, (set(st["palette"]), set(st["uncolored"])))
        return st
    monkeypatch.setattr(problems, "_edge_state", recorded)
    g = random_connected_graph(60, 0.1, 0)
    inst = build_template("EDGE_COLORING", "simple")
    ref = M.reference("EDGE_COLORING", g)
    simulate(g, inst.program, ref, inst.max_rounds(g))  # k = 0
    assert first == {}
    p = M.corrupt("EDGE_COLORING", g, ref, 5, 0)
    out = simulate(g, inst.program, p, inst.max_rounds(g))
    assert validate("EDGE_COLORING", g, out.solution("EDGE_COLORING", g)) is None
    assert 0 < len(first) < g.n
    assert all(edges == left for edges, left in first.values())


def test_ec_uniform_examples():
    e = build_graph([1, 2], [(1, 2)])
    out = simulate(e, program("ec.uniform"))
    assert out.term_round[1] == out.term_round[2] == 2  # probe + round 1
    star = build_graph([9, 1, 2, 3, 4], [(9, i) for i in (1, 2, 3, 4)])
    out = simulate(star, program("ec.uniform"))
    assert out.term_round[9] == 2
    assert sorted(out.outputs[9].values()) == [1, 2, 3, 4]
    single = build_graph([1], [])
    out = simulate(single, program("ec.uniform"))
    assert out.outputs[1] == {} and out.total_rounds == 2


def test_ec_uniform_bound_and_validity():
    for seed in range(40):
        g = random_connected_graph(4 + seed % 9, 0.35, seed)
        prog = program("ec.uniform")
        out = simulate(g, prog, trace=True)
        sol = out.solution("EDGE_COLORING", g)
        assert validate("EDGE_COLORING", g, sol) is None
        assert out.total_rounds - 1 <= max(1, 2 * g.n - 3)
        cps = prog.checkpoints(g, out.total_rounds)
        assert audit_run("EDGE_COLORING", g, out, cps) == (None, [])


def test_ec_palettes_equal_at_phase_ends():
    # extendability invariant: both endpoints of an uncolored edge hold the
    # same palette; derivable from outputs since palettes are full minus the
    # colors seen at the endpoints
    g = random_connected_graph(8, 0.4, 5)
    prog = program("ec.uniform")
    out = simulate(g, prog, trace=True)
    from reference import partial_outputs
    for rnd in prog.checkpoints(g, out.total_rounds):
        partial = partial_outputs(out, rnd)
        for u, v in g.edges():
            if v in partial.get(u, {}):
                assert partial.get(v, {}).get(u) == partial[u][v]


def test_ec_prediction_validation():
    g = line(3)
    with pytest.raises(ValueError):
        simulate(g, program("ec.base"), {1: {2: 1}, 2: {1: 1}, 3: {2: 1}})
    with pytest.raises(ValueError):
        simulate(g, program("ec.base"),
                 {1: {2: 99}, 2: {1: 99, 3: 1}, 3: {2: 1}})
