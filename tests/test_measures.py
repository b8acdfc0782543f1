"""Graph-level controversy measures."""
import numpy as np
import pytest

import controversy as cv
from controversy.measures import (
    BETWEENNESS_BLOCK_ELEMENTS,
    LAYOUT_BLOCK_ELEMENTS,
    dipole_of_polarities,
    propagate_polarity,
)

from conftest import (
    KARATE_EDGES,
    barbell,
    complete,
    make_graph,
    path,
    random_connected_graph,
    two_cliques,
)
from oracles import (
    connected_components,
    dense_force_layout,
    loop_edge_betweenness,
    naive_edge_betweenness,
    networkx_edge_betweenness,
)


def balanced_partition(n):
    return cv.Partition(np.array([0] * (n // 2) + [1] * (n - n // 2), dtype=np.int8))


class TestRwcMc:
    def test_disconnected_cliques_score_one(self):
        g, p = two_cliques(10)
        assert cv.rwc_mc(g, p, k=1, n_walks=400, seed=0) == 1.0

    def test_complete_graph_matches_exact_symmetry_value(self):
        # K_2m with k=1: from any non-terminal start the two terminals are
        # hit with probability 1/2 each, and a walk starting on its own
        # terminal (probability 1/m) stays put, so
        # P[end own | start own] = (m+1)/2m and RWC = 1/m exactly.
        g = complete(20)
        p = balanced_partition(20)
        assert cv.rwc_mc(g, p, k=1, n_walks=20000, seed=3) == pytest.approx(0.1, abs=0.02)

    def test_insufficient_terminations(self):
        g, p = two_cliques(4)
        with pytest.raises(cv.DegenerateStructureError, match="insufficient"):
            cv.rwc_mc(g, p, k=1, n_walks=1, seed=0)

    def test_deterministic_given_seed(self):
        g, p = barbell(4)
        a = cv.rwc_mc(g, p, k=1, n_walks=500, seed=11)
        b = cv.rwc_mc(g, p, k=1, n_walks=500, seed=11)
        assert a == b

    def test_estimate_is_order_independent(self):
        # accumulating integer counts makes the estimate independent of
        # how walks are scheduled; spot-check by comparing against a
        # manual shuffled accumulation of the same per-walk streams
        g, p = barbell(4)
        hds = cv.top_degree(g, p, 1)
        terms = hds.all
        outcomes = []
        for i in range(300):
            rng = cv.walk_rng(17, i)
            from_side0 = rng.random() < 0.5
            pool = p.x if from_side0 else p.y
            start = int(pool[rng.randrange(len(pool))])
            end = cv.sample_walk(g, start, terms, rng)
            outcomes.append((from_side0, end in set(hds.x_plus)))
        counts = np.zeros((2, 2), dtype=int)
        for from_side0, end_x in sorted(outcomes):  # any order
            counts[0 if from_side0 else 1][0 if end_x else 1] += 1
        pxx = counts[0, 0] / (counts[0, 0] + counts[1, 0])
        pyx = counts[1, 0] / (counts[0, 0] + counts[1, 0])
        pxy = counts[0, 1] / (counts[0, 1] + counts[1, 1])
        pyy = counts[1, 1] / (counts[0, 1] + counts[1, 1])
        assert cv.rwc_mc(g, p, k=1, n_walks=300, seed=17) == pytest.approx(
            pxx * pyy - pyx * pxy
        )


class TestRwcRwr:
    def test_complement_identities(self, karate):
        g, p = karate
        c = cv.rwr_conditionals(g, p, k=1)
        assert c["xx"] + c["yx"] == pytest.approx(1.0, abs=1e-9)
        assert c["xy"] + c["yy"] == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_sides_score_exactly_one(self):
        g, p = two_cliques(10)
        assert cv.rwc_rwr(g, p, k=1) == 1.0

    def test_correlates_with_monte_carlo(self):
        rng = np.random.default_rng(0)
        mc_scores, rwr_scores = [], []
        for p2 in (0.002, 0.02, 0.12):
            cfg = cv.PlantedConfig(n=80, p1=0.25, p2=p2, seed=int(rng.integers(1 << 30)))
            g, p = cv.planted_two_community(cfg)
            g = cv.largest_component(g)
            from controversy.synthetic import ground_truth_partition_for

            p = ground_truth_partition_for(g, 80)
            mc_scores.append(cv.rwc_mc(g, p, n_walks=4000, seed=1))
            rwr_scores.append(cv.rwc_rwr(g, p))
        assert np.corrcoef(mc_scores, rwr_scores)[0, 1] > 0.9

    def test_range(self, karate):
        g, p = karate
        assert -1.0 <= cv.rwc_rwr(g, p, k=2) <= 1.0


class TestEdgeBetweenness:
    def test_path_by_hand(self):
        g = path(3)
        bc = cv.edge_betweenness(g)
        assert bc[(0, 1)] == pytest.approx(4.0)
        assert bc[(1, 2)] == pytest.approx(4.0)

    def test_complete_graph_uniform(self):
        g = complete(6)
        values = list(cv.edge_betweenness(g).values())
        assert max(values) == pytest.approx(min(values))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(4, 31))
            g = random_connected_graph(rng, n, extra_edge_prob=0.12)
            fast = cv.edge_betweenness(g)
            slow = naive_edge_betweenness(g)
            assert fast.keys() == slow.keys()
            for e in fast:
                assert fast[e] == pytest.approx(slow[e], abs=1e-9)

    @staticmethod
    def assert_matches_networkx(g):
        fast, ref = cv.edge_betweenness(g), networkx_edge_betweenness(g)
        assert fast.keys() == ref.keys()
        for e in ref:
            assert fast[e] == pytest.approx(ref[e], rel=1e-12)

    def test_larger_than_source_block_matches_networkx_and_loop(self):
        g, _ = cv.planted_two_community(cv.PlantedConfig(300, 0.03, 0.002, seed=3))
        assert g.n_vertices > BETWEENNESS_BLOCK_ELEMENTS // (g.n_vertices + g.n_edges)
        self.assert_matches_networkx(g)
        fast, loop = cv.edge_betweenness(g), loop_edge_betweenness(g)
        assert list(fast) == list(loop)
        for e in fast:
            assert fast[e] == pytest.approx(loop[e], rel=1e-12)

    def test_disconnected_matches_networkx(self):
        # no cross edges: two blocks, plus isolated vertices at this density
        g, _ = cv.planted_two_community(cv.PlantedConfig(400, 0.012, 0.0, seed=5))
        assert len(connected_components(g)) > 2
        assert g.n_vertices > BETWEENNESS_BLOCK_ELEMENTS // (g.n_vertices + g.n_edges)
        self.assert_matches_networkx(g)
        self.assert_matches_networkx(make_graph(7, [(0, 1), (1, 2), (4, 5)]))
        assert cv.edge_betweenness(make_graph(3, [])) == {}


class TestBcc:
    def test_barbell_near_one(self):
        g, p = barbell(10)
        assert cv.bcc(g, p, seed=0) > 0.9

    def test_complete_graph_near_zero(self):
        g = complete(20)
        assert cv.bcc(g, balanced_partition(20), seed=0) < 0.05

    def test_no_cut_edges_rejected(self):
        g, p = two_cliques(5)
        with pytest.raises(cv.DegenerateStructureError, match="degenerate"):
            cv.bcc(g, p, seed=0)

    def test_all_cut_rejected(self):
        g = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        with pytest.raises(cv.DegenerateStructureError):
            cv.bcc(g, p, seed=0)

    def test_needs_a_sample(self, karate):
        g, p = karate
        with pytest.raises(ValueError, match="n_samples"):
            cv.bcc(g, p, n_samples=0)

    def test_range_and_determinism(self, karate):
        g, p = karate
        v1 = cv.bcc(g, p, seed=5)
        v2 = cv.bcc(g, p, seed=5)
        assert v1 == v2
        assert 0.0 <= v1 < 1.0


class TestForceLayout:
    def test_single_edge_separates(self):
        g = path(2)
        pos = cv.force_layout(g, iterations=100, seed=0)
        assert np.linalg.norm(pos[0] - pos[1]) > 0

    def test_barbell_groups_cliques(self):
        g, p = barbell(5)
        pos = cv.force_layout(g, iterations=500, seed=0)
        within = [
            np.linalg.norm(pos[a] - pos[b])
            for side in (p.x, p.y)
            for i, a in enumerate(side)
            for b in side[i + 1 :]
        ]
        across = [np.linalg.norm(pos[a] - pos[b]) for a in p.x for b in p.y]
        assert np.mean(within) < np.mean(across)

    def test_bit_identical_given_seed(self):
        g, _ = barbell(4)
        a = cv.force_layout(g, iterations=120, seed=7)
        b = cv.force_layout(g, iterations=120, seed=7)
        assert (a == b).all()

    @pytest.mark.parametrize("graph", ["karate", "barbell", "planted"])
    def test_bit_identical_to_dense_oracle(self, graph):
        iterations = 500
        if graph == "karate":
            g = cv.read_edgelist(KARATE_EDGES, directed=False)
        elif graph == "barbell":
            g, _ = barbell(5)
        else:
            g, _ = cv.planted_two_community(cv.PlantedConfig(300, 0.04, 0.004, seed=1))
            assert g.n_vertices > LAYOUT_BLOCK_ELEMENTS // g.n_vertices
            iterations = 60
        fast = cv.force_layout(g, iterations=iterations, seed=2)
        assert (fast == dense_force_layout(g, iterations=iterations, seed=2)).all()

    def test_iterations(self):
        g, _ = barbell(4)
        start = cv.force_layout(g, iterations=0, seed=3)
        assert (start == np.random.default_rng(3).random((g.n_vertices, 2))).all()
        with pytest.raises(ValueError, match="iterations"):
            cv.force_layout(g, iterations=-1, seed=3)


class TestEc:
    def test_hand_computed_rectangle(self):
        pos = np.array([[0.0, 0.0], [0.0, 1.0], [100.0, 0.0], [100.0, 1.0]])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        d_cross = (2 * 100.0 + 2 * np.sqrt(100.0**2 + 1.0)) / 4
        expected = 1 - (1.0 + 1.0) / (2 * d_cross)
        value = cv.ec(pos, p)
        assert value == pytest.approx(expected)
        assert value == pytest.approx(0.990, abs=1e-3)

    def test_coincident_within_separated_across(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        assert cv.ec(pos, p) == 1.0

    def test_same_cloud_near_zero(self):
        rng = np.random.default_rng(0)
        pos = rng.random((400, 2))
        p = cv.Partition(np.array([0, 1] * 200, dtype=np.int8))
        assert abs(cv.ec(pos, p)) < 0.05

    def test_coincident_partitions_rejected(self):
        pos = np.zeros((4, 2))
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        with pytest.raises(cv.DegenerateStructureError, match="coincident"):
            cv.ec(pos, p)

    def test_singleton_side_counts_zero_within(self):
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        p = cv.Partition(np.array([0, 1, 1], dtype=np.int8))
        expected = 1 - (0.0 + 1.0) / (2 * 3.5)
        assert cv.ec(pos, p) == pytest.approx(expected)


class TestGmck:
    def test_barbell_exact(self):
        g, p = barbell(5)
        assert cv.gmck(g, p) == pytest.approx(0.3, abs=1e-12)

    def test_disconnected_sides_have_no_boundary(self):
        g, p = two_cliques(5)
        with pytest.raises(cv.DegenerateStructureError, match="boundary"):
            cv.gmck(g, p)

    def test_two_triangles_hand_value(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        assert cv.gmck(g, p) == pytest.approx(1 / 6, abs=1e-12)

    def test_range(self, karate):
        g, p = karate
        assert -0.5 <= cv.gmck(g, p) <= 0.5


class TestMblb:
    def test_disconnected_cliques_score_one(self):
        g, p = two_cliques(10)
        assert cv.mblb(g, p, tol=1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_path_fixed_point_with_explicit_seeds(self):
        g = path(4)
        values = propagate_polarity(g, [0], [3], tol=1e-12, max_iters=5000)
        assert values[1] == pytest.approx(1 / 3, abs=1e-9)
        assert values[2] == pytest.approx(-1 / 3, abs=1e-9)
        assert dipole_of_polarities(values, 4) == pytest.approx(2 / 3, abs=1e-9)

    def test_one_sided_values_warn_and_zero(self):
        values = np.array([1.0, 0.5, 0.0, 0.2])
        with pytest.warns(UserWarning, match="one-sided"):
            assert dipole_of_polarities(values, 4) == 0.0

    def test_residual_contracts_after_first_sweep(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 16)
        deg = g.degrees
        plus = [int(np.argmax(deg))]
        minus = [int(np.argmin(deg + (np.arange(16) == plus[0]) * 1000))]
        # run sweeps manually and watch the residual shrink
        import scipy.sparse as sp

        residuals = []
        values = np.zeros(16)
        values[plus] = 1.0
        values[minus] = -1.0
        free = np.array([v for v in range(16) if v not in plus + minus])
        rows, cols = [], []
        for u, v, _ in g.edge_array.tolist():
            rows += [u, v]
            cols += [v, u]
        adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(16, 16)).tocsr()
        for _ in range(30):
            means = (adj @ values) / np.maximum(deg, 1)
            residuals.append(np.abs(means[free] - values[free]).max())
            values[free] = means[free]
        assert all(a >= b - 1e-15 for a, b in zip(residuals[1:], residuals[2:]))

    def test_range(self, karate):
        g, p = karate
        assert 0.0 <= cv.mblb(g, p) <= 1.0


class TestReport:
    def test_json_is_stable_and_versioned(self):
        r = cv.ControversyReport(topic="t", n_vertices=3, n_edges=2)
        r.add("gmck", 0.25, {}, seed=0)
        r.timestamp = "2026-01-01T00:00:00+00:00"
        payload = r.to_json()
        assert payload == cv.ControversyReport(**{
            "topic": "t", "n_vertices": 3, "n_edges": 2,
            "entries": r.entries, "config": {}, "timestamp": r.timestamp,
        }).to_json()
        assert '"schema_version": 1' in payload

    def test_csv_row(self):
        r = cv.ControversyReport(topic="t", n_vertices=3, n_edges=2)
        r.add("gmck", 0.25, {})
        header = r.csv_header()
        row = r.to_csv_row()
        assert header.startswith("topic,n_vertices,n_edges")
        assert row.split(",")[0] == "t"
        assert "0.25" in row

    def test_value_lookup(self):
        r = cv.ControversyReport(topic="t", n_vertices=1, n_edges=0)
        r.add("ec", 0.5, {})
        assert r.value_of("ec") == 0.5
        with pytest.raises(KeyError):
            r.value_of("bcc")
