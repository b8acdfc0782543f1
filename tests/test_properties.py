"""Randomized invariants over a corpus of small graphs: label-swap
symmetry, antisymmetry, ranges, determinism, complement identities."""
import numpy as np
import pytest

import controversy as cv

from conftest import random_connected_graph
from controversy.users import _strict_rank_fraction
from oracles import (
    dense_stationary_rwr,
    loop_gmck,
    loop_strict_rank_fraction,
    networkx_edge_betweenness,
)

N_GRAPHS = 100


def corpus():
    """(graph, partition) pairs, connected, both sides non-empty."""
    rng = np.random.default_rng(20260808)
    pairs = []
    while len(pairs) < N_GRAPHS:
        n = int(rng.integers(4, 23))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.08, 0.3)))
        sides = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(np.int8)
        if not sides.any() or sides.all():
            continue
        pairs.append((g, cv.Partition(sides)))
    return pairs


CORPUS = corpus()
FAST_BCC_SAMPLES = 2000
FAST_LAYOUT_ITERS = 60


def each_measure(g, p, seed):
    """name -> value for every measure that is structurally defined on
    (g, p); degenerate combinations are skipped."""
    values = {}
    k = cv.default_k(p)
    values["rwc_rwr"] = cv.rwc_rwr(g, p, k=k)
    values["rwc_mc"] = cv.rwc_mc(g, p, k=k, n_walks=200, seed=seed)
    values["mblb"] = cv.mblb(g, p)
    try:
        values["bcc"] = cv.bcc(g, p, n_samples=FAST_BCC_SAMPLES, seed=seed)
    except cv.DegenerateStructureError:
        pass
    try:
        values["gmck"] = cv.gmck(g, p)
    except cv.DegenerateStructureError:
        pass
    layout = cv.force_layout(g, iterations=FAST_LAYOUT_ITERS, seed=seed)
    values["ec"] = cv.ec(layout, p)
    return values


def directed_corpus(count=40):
    """(graph, raw arc array) pairs: random directed graphs with self-loops,
    sinks, isolated vertices, parallel arcs and both arc directions."""
    rng = np.random.default_rng(20261017)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 2 * n))
        arcs = np.column_stack(
            (rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(1, 4, m))
        )
        pairs.append((cv.ConversationGraph([f"u{i}" for i in range(n)], arcs, True), arcs))
    return pairs


class TestStructureAgainstNetworkx:
    def test_components_degrees_neighbors_and_weights(self):
        import networkx as nx

        for g, arcs in [(g, g.arc_array) for g, _ in CORPUS] + directed_corpus():
            ref = nx.MultiDiGraph()
            ref.add_nodes_from(range(g.n_vertices))
            ref.add_weighted_edges_from((int(u), int(v), int(w)) for u, v, w in arcs if u != v)
            und = nx.Graph(ref.to_undirected())
            comps = sorted(sorted(c) for c in nx.connected_components(und))
            labels = g.component_labels
            assert sorted(np.flatnonzero(labels == c).tolist() for c in set(labels)) == comps
            assert g.degrees.tolist() == [und.degree(v) for v in range(g.n_vertices)]
            arc_w, edge_w = {}, {}
            for u, v, w in ref.edges(data="weight"):
                edge = (min(u, v), max(u, v))
                arc = (u, v) if g.directed else edge
                arc_w[arc] = arc_w.get(arc, 0) + w
                edge_w[edge] = edge_w.get(edge, 0) + w
            for v in range(g.n_vertices):
                row = slice(g.csr.indptr[v], g.csr.indptr[v + 1])
                assert g.csr.indices[row].tolist() == sorted(und.neighbors(v))
                assert g.csr.weights[row].tolist() == [
                    edge_w[min(v, u), max(v, u)] for u in sorted(und.neighbors(v))
                ]
                if g.directed:
                    row = slice(g.out_csr.indptr[v], g.out_csr.indptr[v + 1])
                    succ = sorted(set(ref.successors(v)))
                    assert g.out_csr.indices[row].tolist() == succ
                    assert g.out_csr.weights[row].tolist() == [arc_w[v, u] for u in succ]
            assert g.arc_array.tolist() == sorted([u, v, w] for (u, v), w in arc_w.items())
            assert g.edge_array.tolist() == sorted([u, v, w] for (u, v), w in edge_w.items())

    def test_edge_betweenness(self):
        for g, _ in CORPUS:
            fast, ref = cv.edge_betweenness(g), networkx_edge_betweenness(g)
            assert fast.keys() == ref.keys()
            for e in ref:
                assert fast[e] == pytest.approx(ref[e], rel=1e-12)


class TestVectorisedAgainstLoops:
    def test_gmck_matches_loop_oracle(self):
        checked = 0
        for g, p in CORPUS:
            want = loop_gmck(g, p.sides)
            if want is None:
                with pytest.raises(cv.DegenerateStructureError):
                    cv.gmck(g, p)
                continue
            # the vectorised mean sums in another order than the loop
            assert cv.gmck(g, p) == pytest.approx(want, abs=1e-12)
            checked += 1
        assert checked >= 60

    def test_rank_fraction_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        cases = [np.array([]), np.array([np.inf]), np.array([2.0, 2.0 + 1e-12, np.inf, 0.0])]
        for g, p in CORPUS[:40]:
            hds = cv.top_degree(g, p, cv.default_k(p))
            cases.append(cv.expected_hitting_times(g, hds.x_plus))
        for _ in range(30):
            # chains of near-ties, exact ties and infinities
            vals = np.cumsum(rng.choice([0.0, 5e-10, 1.0], size=int(rng.integers(1, 25))))
            vals[rng.random(len(vals)) < 0.2] = np.inf
            cases.append(rng.permutation(vals))
        for vals in cases:
            assert np.array_equal(_strict_rank_fraction(vals), loop_strict_rank_fraction(vals))


class TestSideSwapSymmetry:
    def test_every_measure_is_label_symmetric(self):
        covered = {name: 0 for name in ("rwc_rwr", "rwc_mc", "mblb", "bcc", "gmck", "ec")}
        for i, (g, p) in enumerate(CORPUS):
            original = each_measure(g, p, seed=i)
            swapped = each_measure(g, p.swapped(), seed=i)
            assert original.keys() == swapped.keys()
            for name, value in original.items():
                assert swapped[name] == value, f"{name} changed under side swap"
                covered[name] += 1
        assert all(count >= 60 for count in covered.values()), covered


class TestUserScoreSymmetry:
    def test_rho_antisymmetric_and_in_open_interval(self):
        for i, (g, p) in enumerate(CORPUS[:40]):
            hds = cv.top_degree(g, p, cv.default_k(p))
            hds_swapped = cv.top_degree(g, p.swapped(), cv.default_k(p))
            rho = cv.hitting_score_all(g, p, hds)
            rho_swapped = cv.hitting_score_all(g, p.swapped(), hds_swapped)
            assert np.array_equal(rho, -rho_swapped)
            assert (rho > -1.0).all() and (rho < 1.0).all()

    def test_rwc_user_swap_invariant_and_in_range(self):
        rng = np.random.default_rng(5)
        for i, (g, p) in enumerate(CORPUS[:25]):
            hds = cv.top_degree(g, p, cv.default_k(p))
            hds_swapped = cv.top_degree(g, p.swapped(), cv.default_k(p))
            u = int(rng.integers(0, g.n_vertices))
            value = cv.rwc_user(g, p, hds, u)
            assert 0.0 <= value <= 1.0
            assert cv.rwc_user(g, p.swapped(), hds_swapped, u) == value
            table = cv.user_score_table(g, p, hds)
            swapped = cv.user_score_table(g, p.swapped(), hds_swapped)
            assert [r.rwc_user for r in swapped] == [r.rwc_user for r in table]


def dense_rwc_user(g, p, hds, u):
    """Own-side share of the authority mass of one dense stationary solve
    restarting at u, and the total authority mass."""
    pi = dense_stationary_rwr(g, [u], hds.all, cv.RestartWalkConfig().damping)
    m_x, m_y = pi[list(hds.x_plus)].sum(), pi[list(hds.y_plus)].sum()
    total = m_x + m_y
    return ((m_x if p.sides[u] == 0 else m_y) / total if total > 0 else None), total


class TestUserScoresAgainstDenseOracle:
    def test_every_vertex_of_the_corpus(self):
        for g, p in CORPUS:
            hds = cv.top_degree(g, p, cv.default_k(p))
            table = cv.user_score_table(g, p, hds)
            for u, row in enumerate(table):
                expected, _ = dense_rwc_user(g, p, hds, u)
                assert abs(row.rwc_user - expected) < 1e-8

    def test_directed_graphs_with_sinks(self):
        rng = np.random.default_rng(7)
        checked = unreached = 0
        for g, _ in directed_corpus():
            if g.n_vertices < 2:
                continue
            p = cv.Partition(np.resize([0, 1], g.n_vertices)[rng.permutation(g.n_vertices)])
            hds = cv.top_degree(g, p, cv.default_k(p))
            for u in range(g.n_vertices):
                expected, total = dense_rwc_user(g, p, hds, u)
                if total < 1e-12:
                    with pytest.raises(cv.DegenerateStructureError, match=repr(g.ids[u])):
                        cv.rwc_user(g, p, hds, u)
                    unreached += 1
                else:
                    assert abs(cv.rwc_user(g, p, hds, u) - expected) < 1e-8
                    checked += 1
        assert checked >= 200 and unreached >= 50, (checked, unreached)


class TestRanges:
    def test_score_ranges(self):
        for i, (g, p) in enumerate(CORPUS):
            values = each_measure(g, p, seed=i)
            assert -1.0 <= values["rwc_rwr"] <= 1.0
            assert -1.0 <= values["rwc_mc"] <= 1.0
            assert 0.0 <= values["mblb"] <= 1.0
            assert values["ec"] <= 1.0
            if "bcc" in values:
                assert 0.0 <= values["bcc"] < 1.0
            if "gmck" in values:
                assert -0.5 <= values["gmck"] <= 0.5


class TestComplementIdentities:
    def test_conditionals_complement_to_one(self):
        for g, p in CORPUS[:50]:
            c = cv.rwr_conditionals(g, p, k=cv.default_k(p))
            assert abs(c["xx"] + c["yx"] - 1.0) < 1e-9
            assert abs(c["xy"] + c["yy"] - 1.0) < 1e-9


class TestDeterminism:
    def test_measures_bit_reproducible(self):
        for i, (g, p) in enumerate(CORPUS[:20]):
            a = each_measure(g, p, seed=i)
            b = each_measure(g, p, seed=i)
            assert a == b

    def test_mc_walks_independent_of_scheduling(self):
        # per-walk streams are a pure function of (seed, walk index), so
        # an interleaved/chunked execution reproduces the same counts
        g, p = CORPUS[0]
        hds = cv.top_degree(g, p, cv.default_k(p))
        terms = hds.all
        x_plus = set(hds.x_plus)

        def outcome(i):
            rng = cv.walk_rng(77, i)
            side0 = rng.random() < 0.5
            pool = p.x if side0 else p.y
            start = int(pool[rng.randrange(len(pool))])
            return side0, cv.sample_walk(g, start, terms, rng) in x_plus

        serial = [outcome(i) for i in range(150)]
        chunked = []
        for chunk_start in (100, 50, 0):
            chunked.extend(outcome(i) for i in range(chunk_start, chunk_start + 50))
        assert sorted(serial) == sorted(chunked)

    def test_stationary_distribution_deterministic(self):
        g, p = CORPUS[1]
        a = cv.stationary_rwr(g, p.x, cv.top_degree(g, p, 1).all)
        b = cv.stationary_rwr(g, p.x, cv.top_degree(g, p, 1).all)
        assert (a == b).all()
