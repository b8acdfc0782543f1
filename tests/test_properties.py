"""Randomized invariants over a corpus of small graphs: label-swap
symmetry, antisymmetry, ranges, determinism, complement identities."""
import numpy as np
import pytest

import controversy as cv

from conftest import keyed_betweenness, random_connected_graph
from controversy.synthetic import ground_truth_partition_for
from controversy.users import _strict_rank_fraction
from controversy.walks import DAMPING
from oracles import (
    dense_stationary_rwr,
    loop_gmck,
    loop_strict_rank_fraction,
    networkx_edge_betweenness,
    rwc_mc_band,
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
            fast, ref = keyed_betweenness(g), networkx_edge_betweenness(g)
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
            cases.append(cv.expected_hitting_times(g, cv.top_degree(g, p)[0]))
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
            rho = cv.hitting_score_all(g, p)
            rho_swapped = cv.hitting_score_all(g, p.swapped())
            assert np.array_equal(rho, -rho_swapped)
            assert (rho > -1.0).all() and (rho < 1.0).all()

    def test_rwc_user_swap_invariant_and_in_range(self):
        for g, p in CORPUS[:25]:
            values = cv.rwc_user(g, p)
            assert ((values >= 0.0) & (values <= 1.0)).all()
            assert cv.rwc_user(g, p.swapped()).tolist() == values.tolist()
            table, _ = cv.user_score_table(g, p)
            swapped, _ = cv.user_score_table(g, p.swapped())
            assert swapped.tolist() == table.tolist() == values.tolist()


def dense_rwc_user(g, p, u):
    """Own-side share of the authority mass of one dense stationary solve
    restarting at u (default-k authorities dangling), and the total
    authority mass."""
    x_plus, y_plus = cv.top_degree(g, p)
    pi = dense_stationary_rwr(g, [u], np.concatenate((x_plus, y_plus)), DAMPING)
    m_x, m_y = pi[x_plus].sum(), pi[y_plus].sum()
    total = m_x + m_y
    return ((m_x if p.sides[u] == 0 else m_y) / total if total > 0 else None), total


class TestUserScoresAgainstDenseOracle:
    def test_every_vertex_of_the_corpus(self):
        for g, p in CORPUS:
            table, _ = cv.user_score_table(g, p)
            for u, value in enumerate(table):
                expected, _ = dense_rwc_user(g, p, u)
                assert abs(value - expected) < 1e-8

    def test_directed_graphs_with_sinks(self):
        rng = np.random.default_rng(7)
        checked = unreached = 0
        for g, _ in directed_corpus():
            if g.n_vertices < 2:
                continue
            p = cv.Partition(np.resize([0, 1], g.n_vertices)[rng.permutation(g.n_vertices)])
            values = cv.rwc_user(g, p)
            for u in range(g.n_vertices):
                expected, total = dense_rwc_user(g, p, u)
                if total < 1e-12:
                    assert np.isnan(values[u])
                    unreached += 1
                else:
                    assert abs(values[u] - expected) < 1e-8
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


def planted_pair():
    """The largest component of a 200-vertex planted graph, on its planted sides."""
    g, _ = cv.planted_two_community(cv.PlantedConfig(n=200, p1=0.05, p2=0.005, seed=1))
    sub = cv.largest_component(g)
    return sub, ground_truth_partition_for(sub, 200)


class TestMonteCarloBand:
    @pytest.mark.parametrize("graph", ["karate", "planted"])
    def test_rwc_mc_within_5_standard_errors_of_exact(self, graph, request):
        # every seed's 10,000 walks, all drawn from one stream, land within
        # 5 standard errors of the absorbing chain's expectation
        g, p = request.getfixturevalue("karate") if graph == "karate" else planted_pair()
        mean, sigma = rwc_mc_band(g, p)
        for seed in range(5):
            assert abs(cv.rwc_mc(g, p, seed=seed) - mean) <= 5 * sigma, seed


class TestComplementIdentities:
    def test_conditionals_complement_to_one(self):
        for g, p in CORPUS[:50]:
            c = cv.rwr_conditionals(g, p, k=cv.default_k(p))
            assert abs(c[0, 0] + c[1, 0] - 1.0) < 1e-9
            assert abs(c[0, 1] + c[1, 1] - 1.0) < 1e-9


class TestDeterminism:
    def test_measures_bit_reproducible(self):
        for i, (g, p) in enumerate(CORPUS[:20]):
            a = each_measure(g, p, seed=i)
            b = each_measure(g, p, seed=i)
            assert a == b

    def test_restart_conditionals_deterministic(self):
        g, p = CORPUS[1]
        assert cv.rwr_conditionals(g, p, 1).tolist() == cv.rwr_conditionals(g, p, 1).tolist()
