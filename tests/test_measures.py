"""Graph-level controversy measures."""
import random
import tracemalloc

import numpy as np
import pytest

import controversy as cv
import controversy.measures as measures_module
from controversy.measures import (
    BETWEENNESS_BLOCK_ELEMENTS,
    DENSITY_FLOOR,
    KDE_BLOCK_ELEMENTS,
    KDE_REACH,
    LAYOUT_BLOCK_ELEMENTS,
    _kde_density,
    dipole_of_polarities,
    propagate_polarity,
)

from conftest import (
    KARATE_EDGES,
    barbell,
    complete,
    keyed_betweenness,
    make_graph,
    path,
    random_connected_graph,
    two_cliques,
)
from oracles import (
    connected_components,
    dense_force_layout,
    dense_kde_density,
    loop_edge_betweenness,
    naive_edge_betweenness,
    networkx_edge_betweenness,
    randrange_walk_outcomes,
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

    def test_authority_free_component_fails_before_walking(self, monkeypatch):
        # two triangles plus an edge x-y; k = 1 puts both authorities in
        # the first triangle, so no walk from d, e, f, x or y can end
        ids = ["a", "b", "c", "d", "e", "f", "x", "y"]
        arcs = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (6, 7, 1)]
        g = cv.ConversationGraph(ids, arcs, False)
        p = cv.Partition([0, 1, 0, 0, 1, 1, 0, 1])

        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("drew a side")

            def getrandbits(self, k):
                raise AssertionError("drew a start or a step")

        monkeypatch.setattr(measures_module.random, "Random", NoDraws)
        with pytest.raises(cv.DegenerateStructureError, match=r"5 vertices .* \(first: 'd'\)"):
            cv.rwc_mc(g, p, k=1, n_walks=100)

    def test_deterministic_given_seed(self):
        g, p = barbell(4)
        a = cv.rwc_mc(g, p, k=1, n_walks=500, seed=11)
        b = cv.rwc_mc(g, p, k=1, n_walks=500, seed=11)
        assert a == b

    def test_negative_seed_rejected(self):
        # Random(-5) would draw Random(5)'s stream
        g, p = barbell(4)
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            cv.rwc_mc(g, p, k=1, n_walks=10, seed=-5)

    def test_estimate_is_order_independent(self):
        # accumulating integer counts makes the estimate independent of
        # the order of the walks; spot-check by comparing against a
        # manual shuffled accumulation of the same walks
        g, p = barbell(4)
        x_plus = set(cv.top_degree(g, p, 1)[0].tolist())
        outcomes = [(start in p.x, end in x_plus)
                    for start, end in randrange_walk_outcomes(g, p, 1, 300, 17)]
        counts = np.zeros((2, 2), dtype=int)
        for from_x, end_x in sorted(outcomes):  # any order
            counts[0 if from_x else 1][0 if end_x else 1] += 1
        pxx = counts[0, 0] / (counts[0, 0] + counts[1, 0])
        pyx = counts[1, 0] / (counts[0, 0] + counts[1, 0])
        pxy = counts[0, 1] / (counts[0, 1] + counts[1, 1])
        pyy = counts[1, 1] / (counts[0, 1] + counts[1, 1])
        assert cv.rwc_mc(g, p, k=1, n_walks=300, seed=17) == pytest.approx(
            pxx * pyy - pyx * pxy
        )

    @pytest.mark.parametrize("swap", [False, True])
    def test_walks_follow_the_randrange_stream(self, karate, monkeypatch, swap):
        # every walk's (start, end) is the one randrange draws from the
        # same single stream, under either side labelling
        g, p = karate
        if swap:
            p = cv.Partition(1 - p.sides)
        pairs = []

        def recording_walker(g, terminals, rng):
            walk = walker(g, terminals, rng)

            def recording_walk(start):
                end = walk(start)
                pairs.append((start, end))
                return end

            return recording_walk

        walker = measures_module._walker
        monkeypatch.setattr(measures_module, "_walker", recording_walker)
        cv.rwc_mc(g, p, n_walks=2000, seed=5)
        assert pairs == randrange_walk_outcomes(g, p, None, 2000, 5)


class TestRwcRwr:
    def test_complement_identities(self, karate):
        g, p = karate
        c = cv.rwr_conditionals(g, p, k=1)
        assert c[0, 0] + c[1, 0] == pytest.approx(1.0, abs=1e-9)
        assert c[0, 1] + c[1, 1] == pytest.approx(1.0, abs=1e-9)

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
        assert g.edge_array[:, :2].tolist() == [[0, 1], [1, 2]]
        assert cv.edge_betweenness(g).tolist() == pytest.approx([4.0, 4.0])

    def test_complete_graph_uniform(self):
        g = complete(6)
        values = cv.edge_betweenness(g)
        assert values.shape == (15,)
        assert values.max() == pytest.approx(values.min())

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(4, 31))
            g = random_connected_graph(rng, n, extra_edge_prob=0.12)
            fast = keyed_betweenness(g)
            slow = naive_edge_betweenness(g)
            assert fast.keys() == slow.keys()
            for e in fast:
                assert fast[e] == pytest.approx(slow[e], abs=1e-9)

    @staticmethod
    def assert_matches_networkx(g):
        fast, ref = keyed_betweenness(g), networkx_edge_betweenness(g)
        assert fast.keys() == ref.keys()
        for e in ref:
            assert fast[e] == pytest.approx(ref[e], rel=1e-12)

    def test_larger_than_source_block_matches_networkx_and_loop(self):
        g, _ = cv.planted_two_community(cv.PlantedConfig(300, 0.03, 0.002, seed=3))
        assert g.n_vertices > BETWEENNESS_BLOCK_ELEMENTS // (g.n_vertices + g.n_edges)
        self.assert_matches_networkx(g)
        fast, loop = keyed_betweenness(g), loop_edge_betweenness(g)
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
        assert cv.edge_betweenness(make_graph(3, [])).shape == (0,)


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

    # "saturated": bcc ~ 1 - 7e-9 on a 200-vertex, 814-edge graph with 17
    # cut edges, where a third of the non-cut densities are left with no
    # term within the floor's reach (11.0 bandwidths)
    @pytest.mark.parametrize("graph", ["karate", "planted", "saturated"])
    def test_matches_the_dense_kde(self, graph, karate, monkeypatch):
        if graph == "karate":
            g, p = karate
        else:
            p2 = 0.004 if graph == "planted" else 0.002
            g, p = cv.planted_two_community(cv.PlantedConfig(200, 0.08, p2, seed=1))
        windowed = cv.bcc(g, p, seed=3)
        monkeypatch.setattr(measures_module, "_kde_density", dense_kde_density)
        assert windowed == pytest.approx(cv.bcc(g, p, seed=3), rel=1e-13)


class TestKdeDensity:
    """The windowed KDE against the dense sum over every center: at or
    above DENSITY_FLOOR they differ only in summation order."""

    @staticmethod
    def assert_matches_dense(points, centers, bandwidth):
        got = _kde_density(points, centers, bandwidth)
        np.testing.assert_allclose(got, dense_kde_density(points, centers, bandwidth),
                                   rtol=1e-13, atol=0.0)
        return got

    def test_heavy_tailed_centers(self):
        rng = np.random.default_rng(4)
        centers = rng.pareto(1.1, 3000) * 50.0
        # Scott's rule on these centers spans nearly all of them; both it
        # and a narrow bandwidth, where the window drops most centers
        for bandwidth in (measures_module._scott_bandwidth(centers), 1.0):
            points = rng.choice(centers, 5000) + bandwidth * rng.standard_normal(5000)
            self.assert_matches_dense(points, centers, bandwidth)
        far = np.abs(points[:, None] - centers[None, :]) > KDE_REACH * bandwidth
        assert far.mean() > 0.5

    def test_points_beyond_reach_of_every_center(self):
        centers = np.linspace(0.0, 1.0, 50)
        bandwidth = 0.01
        points = np.array([-0.5, 1.0 + KDE_REACH * bandwidth * 1.01, 3.0, 1e6, 0.5])
        got = self.assert_matches_dense(points, centers, bandwidth)
        assert (got[:4] == 0.0).all() and got[4] > 0.0
        assert (np.maximum(got[:4], DENSITY_FLOOR) == DENSITY_FLOOR).all()

    def test_one_center(self):
        rng = np.random.default_rng(5)
        points = np.append(3.0 + rng.standard_normal(1000) * 40.0, 3.0)
        got = self.assert_matches_dense(points, np.array([3.0]), 0.7)
        assert got[-1] == pytest.approx(1.0 / (0.7 * np.sqrt(2.0 * np.pi)), rel=1e-15)
        assert (got == 0.0).any()  # points beyond reach of the one center

    def test_uneven_chunks(self):
        # 10,007 points, a prime count, over 700 centers in chunks of
        # about KDE_BLOCK_ELEMENTS / window points each
        rng = np.random.default_rng(6)
        centers = rng.normal(0.0, 1.0, 700)
        points = rng.normal(0.0, 1.5, 10_007)
        assert 10_007 % (KDE_BLOCK_ELEMENTS // 700) != 0
        self.assert_matches_dense(points, centers, 0.2)

    def test_single_point_window_wider_than_a_block(self):
        centers = np.linspace(0.0, 1.0, KDE_BLOCK_ELEMENTS + 7)
        self.assert_matches_dense(np.array([0.5, 0.25, 2.0]), centers, 0.3)

    def test_densities_either_side_of_the_floor(self):
        # points beyond the edge of the centers, with dense densities from
        # about 1e-8 down to about 1e-300; the chunks there are narrow, so
        # densities far below the floor lose terms
        rng = np.random.default_rng(8)
        centers = rng.uniform(0.0, 1.0, 2000)
        bandwidth = 0.01
        points = 1.0 + bandwidth * np.linspace(5.5, 37.0, 20_000)
        got = _kde_density(points, centers, bandwidth)
        dense = dense_kde_density(points, centers, bandwidth)
        assert 1e-9 < dense.max() < 1e-7 and 0.0 < dense.min() < 1e-290
        assert ((got == 0.0) & (dense > 0.0)).any()
        np.testing.assert_allclose(np.maximum(got, DENSITY_FLOOR),
                                   np.maximum(dense, DENSITY_FLOOR), rtol=1e-13, atol=0.0)
        assert (got <= dense * (1 + 1e-13)).all()

    def test_a_cluster_at_the_edge_of_the_reach(self):
        # 1999 centers in one spot and one more 16.2 bandwidths away: as the
        # points move off the cluster, the window drops it (about 11
        # bandwidths out) where the lone center still holds the density
        # above the floor; a window one bandwidth short of that changes
        # such a density by ~1e-12 relative
        centers = np.append(np.full(1999, -16.2), 0.0)
        points = np.linspace(-16.2, 0.0, 10_000)
        got = _kde_density(points, centers, 1.0)
        dense = dense_kde_density(points, centers, 1.0)
        np.testing.assert_allclose(np.maximum(got, DENSITY_FLOOR),
                                   np.maximum(dense, DENSITY_FLOOR), rtol=1e-13, atol=0.0)
        assert (got <= dense * (1 + 1e-13)).all()

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(7)
        centers, points = rng.random(6000), rng.random(6000)
        tracemalloc.start()
        try:
            _kde_density(points, centers, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (points, centers) product would be 288 MB; one block is 512 KiB
        assert peak < 2 * 2**20


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

    @staticmethod
    def oracle_graph(name):
        if name == "karate":
            return cv.read_edgelist(KARATE_EDGES, directed=False)
        if name == "barbell":
            return barbell(5)[0]
        if name == "isolated":
            return make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])  # vertex 5 has no edge
        if name == "edgeless":
            return make_graph(5, [])
        g, _ = cv.planted_two_community(cv.PlantedConfig(300, 0.04, 0.004, seed=1))
        assert g.n_vertices > LAYOUT_BLOCK_ELEMENTS // g.n_vertices  # more than one block
        return g

    @pytest.mark.parametrize("iterations", [1, 5])
    @pytest.mark.parametrize("graph", ["karate", "barbell", "planted", "isolated", "edgeless"])
    def test_matches_dense_oracle(self, graph, iterations):
        # the same forces in another rounding order; the layout is chaotic,
        # so a few iterations keep the gap at rounding (<= 5.4e-13 measured)
        g = self.oracle_graph(graph)
        fast = cv.force_layout(g, iterations=iterations, seed=2)
        assert np.abs(fast - dense_force_layout(g, iterations=iterations, seed=2)).max() <= 1e-10

    def test_block_size_does_not_change_bits(self, monkeypatch):
        g = self.oracle_graph("planted")
        layouts = []
        for elements in (1 << 10, 1 << 16, 1 << 20):  # 3 columns a block, 218, all 300
            monkeypatch.setattr(measures_module, "LAYOUT_BLOCK_ELEMENTS", elements)
            layouts.append(cv.force_layout(g, iterations=60, seed=2))
        assert all((layout == layouts[0]).all() for layout in layouts[1:])

    @pytest.mark.parametrize("graph", [*(f"karate-{s}" for s in range(5)),
                                       *(f"planted-{s}" for s in (1, 2, 3))])
    def test_ec_of_full_layout_near_oracle(self, karate, graph):
        name, seed = graph.split("-")
        if name == "karate":
            (g, p), seed = karate, int(seed)
        else:
            g, p = cv.planted_two_community(cv.PlantedConfig(200, 0.08, 0.004, seed=int(seed)))
            seed = 0
        fast = cv.ec(cv.force_layout(g, iterations=500, seed=seed), p)
        assert fast == pytest.approx(cv.ec(dense_force_layout(g, iterations=500, seed=seed), p),
                                     abs=0.01)

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

    def test_blocked_sums_match_whole_matrices(self):
        from scipy.spatial.distance import cdist, pdist

        rng = np.random.default_rng(4)
        pos = rng.random((1000, 2))
        p = cv.Partition(rng.integers(0, 2, 1000, dtype=np.int8))
        xs, ys = pos[p.x], pos[p.y]
        whole = 1 - (pdist(xs).mean() + pdist(ys).mean()) / (2 * cdist(xs, ys).mean())
        assert len(xs) * len(ys) > LAYOUT_BLOCK_ELEMENTS  # more than one block
        assert cv.ec(pos, p) == pytest.approx(whole, rel=0, abs=1e-14)
        assert cv.ec(pos, p.swapped()) == cv.ec(pos, p)

    def test_one_vertex_has_no_second_side(self):
        with pytest.raises(cv.DegenerateStructureError, match="two non-empty sides"):
            cv.ec(np.zeros((1, 2)), cv.Partition(np.array([0], dtype=np.int8)))

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(7)
        pos = rng.random((6000, 2))
        p = cv.Partition(np.array([0, 1] * 3000, dtype=np.int8))
        tracemalloc.start()
        try:
            cv.ec(pos, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cross distances would be 72 MB at once; one block is 512 KiB
        assert peak < 2 * 2**20


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
    def test_disconnected_cliques_score_one(self, monkeypatch):
        monkeypatch.setattr(measures_module, "POLARITY_TOL", 1e-12)
        g, p = two_cliques(10)
        assert cv.mblb(g, p) == pytest.approx(1.0, abs=1e-9)

    def test_path_fixed_point_with_explicit_seeds(self, monkeypatch):
        monkeypatch.setattr(measures_module, "POLARITY_TOL", 1e-12)
        g = path(4)
        values = propagate_polarity(g, [0], [3])
        assert values[1] == pytest.approx(1 / 3, abs=1e-9)
        assert values[2] == pytest.approx(-1 / 3, abs=1e-9)
        assert dipole_of_polarities(values) == pytest.approx(2 / 3, abs=1e-9)

    def test_zero_polarity_vertex_counts_in_n(self):
        # n+ = 2, n- = 1 over n = 4, not 3: (1 - 1/4) * |0.75 - (-1)| / 2
        values = np.array([1.0, 0.5, 0.0, -1.0])
        assert dipole_of_polarities(values) == pytest.approx(0.75 * 1.75 / 2, abs=1e-15)

    def test_unconverged_propagation_raises(self, monkeypatch):
        # on a 400-vertex path the sweep shrinks the error by about
        # cos(pi/400) per sweep: nowhere near 1e-6 after 1000 sweeps
        g = path(400)
        with pytest.raises(cv.ConvergenceError, match=r"^label propagation did not converge in "
                           r"1000 iterations \(last change ") as info:
            propagate_polarity(g, [0], [399])
        assert 1e-6 <= info.value.residual < 1.0
        p = cv.Partition(np.array([0] * 200 + [1] * 200, dtype=np.int8))
        with pytest.raises(cv.ConvergenceError):
            cv.mblb(g, p)
        monkeypatch.setattr(measures_module, "POLARITY_MAX_ITERS", 3)
        with pytest.raises(cv.ConvergenceError, match=r"did not converge in 3 iterations "):
            propagate_polarity(path(40), [0], [39])

    @pytest.mark.parametrize("plus, minus, bad", [([-1], [0], -1), ([0], [4], 4)])
    def test_out_of_range_seed_rejected(self, plus, minus, bad):
        with pytest.raises(ValueError, match=rf"^seed index {bad} out of range \[0, 4\)$"):
            propagate_polarity(path(4), plus, minus)

    @pytest.mark.parametrize("plus, minus, both", [([0, 3], [3], 3), ([0, 2, 3], [1, 3, 2], 3)])
    def test_seed_on_both_sides_rejected(self, plus, minus, both):
        message = rf"^seed index {both} is both a plus and a minus seed$"
        with pytest.raises(ValueError, match=message):
            propagate_polarity(path(4), plus, minus)

    def test_one_sided_values_warn_and_zero(self):
        values = np.array([1.0, 0.5, 0.0, 0.2])
        with pytest.warns(UserWarning, match="one-sided"):
            assert dipole_of_polarities(values) == 0.0

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
