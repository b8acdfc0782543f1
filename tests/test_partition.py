"""Spectral bisection, partition import, cut machinery."""
import warnings

import numpy as np
import pytest

import controversy as cv
from controversy.graph import largest_component
from controversy.partition import _fiedler_vector, _refine_single_sweep
from controversy.synthetic import PlantedConfig, planted_two_community

from conftest import KARATE_FACTIONS, barbell, cycle, make_graph, path, random_connected_graph
from oracles import (
    best_balanced_cut,
    cut_edges,
    dense_fiedler_vector,
    tuple_graph,
    weighted_cut,
)
from test_properties import CORPUS


def cut_mask(g, p):
    """The array form of the cut: one flag per row of ``g.edge_array``."""
    e = g.edge_array
    return p.sides[e[:, 0]] != p.sides[e[:, 1]]


class TestSpectralBisection:
    def test_barbell_splits_into_cliques(self):
        g, truth = barbell(5)
        p = cv.spectral_bisection(g, seed=0)
        assert p == truth or p == truth.swapped()
        assert len(cut_edges(g, p)) == 1 == cut_mask(g, p).sum()

    def test_six_cycle_matches_brute_force_optimum(self):
        g = cycle(6)
        p = cv.spectral_bisection(g, seed=0)
        assert weighted_cut(g, p) == best_balanced_cut(g) == 2
        # each side is a path of three consecutive vertices
        for side in (p.x, p.y):
            vs = sorted(int(v) for v in side)
            spans = {(vs[0], vs[1], vs[2])}
            assert any(
                (a + 1) % 6 == b and (b + 1) % 6 == c
                for a, b, c in spans | {(vs[1], vs[2], vs[0]), (vs[2], vs[0], vs[1])}
            )

    def test_two_vertex_path(self):
        g = path(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = cv.spectral_bisection(g, seed=0)
        assert sorted([len(p.x), len(p.y)]) == [1, 1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 18)
        assert cv.spectral_bisection(g, seed=5) == cv.spectral_bisection(g, seed=5)

    def test_near_balance(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            g = random_connected_graph(rng, 15 + trial)
            p = cv.spectral_bisection(g, seed=trial)
            assert abs(len(p.x) - len(p.y)) <= 1 + 2  # median split +- one sweep of swaps

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(cv.DegenerateStructureError, match="connected"):
            cv.spectral_bisection(g, seed=0)

    def test_tiny_graph_rejected(self):
        g = cv.ConversationGraph(["a"], [], False)
        with pytest.raises(cv.DegenerateStructureError):
            cv.spectral_bisection(g, seed=0)

    def test_refinement_never_increases_cut(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            g = random_connected_graph(rng, n)
            sides = (rng.random(n) < 0.5).astype(np.int8)
            sides[0], sides[-1] = 0, 1  # keep both sides non-empty
            before = weighted_cut(g, cv.Partition(sides.copy()))
            refined = _refine_single_sweep(g, sides.copy())
            after = weighted_cut(g, cv.Partition(refined))
            assert after <= before


def hub_graph():
    """Two planted 30-vertex blocks plus a hub that every vertex endorses
    20 times, as a heavily retweeted account is. Then λ₃ − λ₂ ≈ 2.3
    against λ_max = 1220: a spectral gap that is small next to the width
    of the spectrum, as on hub-dominated retweet graphs."""
    g, truth = planted_two_community(PlantedConfig(60, 0.3, 0.02, seed=1))
    arcs = np.vstack([g.edge_array, [(60, v, 20) for v in range(60)]])
    return cv.ConversationGraph(list(g.ids) + ["hub"], arcs, False), truth


class TestFiedlerVector:
    """``_fiedler_vector`` against the dense eigensolve of the Laplacian."""

    def check(self, g, seed=0):
        v = _fiedler_vector(g, seed)
        vals, ref = dense_fiedler_vector(g)
        e = g.edge_array
        rayleigh = (e[:, 2] * (v[e[:, 0]] - v[e[:, 1]]) ** 2).sum() / (v @ v)
        assert rayleigh == pytest.approx(vals[1], rel=1e-10)
        if vals[2] - vals[1] > 1e-6:
            u = v / np.linalg.norm(v)
            assert min(np.abs(u - ref).max(), np.abs(u + ref).max()) < 1e-8
        # the sign rule: positive inner product with the seeded start
        start = np.random.default_rng(seed).standard_normal(g.n_vertices)
        assert v @ (start - start.mean()) > 0

    def test_random_corpus(self):
        for i, (g, _) in enumerate(CORPUS):
            self.check(g, seed=i % 7)

    def test_karate_barbell_and_planted(self, karate):
        planted, _ = planted_two_community(PlantedConfig(300, 0.05, 0.005, seed=1))
        for g in (karate[0], barbell(5)[0], largest_component(planted)):
            for seed in (0, 1):
                self.check(g, seed)

    def test_hub_graph(self):
        g, truth = hub_graph()
        self.check(g)
        p = cv.spectral_bisection(g, seed=0)
        assert np.array_equal(p.sides[:-1], truth.sides)


class TestImportPartition:
    def test_karate_factions(self, karate):
        g, p = karate
        assert sorted([len(p.x), len(p.y)]) in ([16, 18], [17, 17])
        assert len(p.x) + len(p.y) == 34

    def test_missing_vertex(self, tmp_path, karate):
        g, _ = karate
        f = tmp_path / "p.tsv"
        f.write_text("".join(f"{uid}\t0\n" for uid in list(g.ids)[:-1]) + "")
        with pytest.raises(cv.InputDataError, match="unlabeled"):
            cv.import_partition(g, f)

    def test_unknown_vertex(self, tmp_path):
        g = make_graph(2, [(0, 1)])
        f = tmp_path / "p.tsv"
        f.write_text("0\t0\n1\t1\nghost\t0\n")
        with pytest.raises(cv.InputDataError, match="unknown"):
            cv.import_partition(g, f)

    def test_bad_label(self, tmp_path):
        g = make_graph(2, [(0, 1)])
        f = tmp_path / "p.tsv"
        f.write_text("0\t0\n1\t2\n")
        with pytest.raises(cv.InputDataError, match="side label"):
            cv.import_partition(g, f)

    def test_round_trip(self, tmp_path):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        f = tmp_path / "p.tsv"
        cv.write_partition(g, p, f)
        assert cv.import_partition(g, f) == p


class TestCutEdges:
    def test_barbell_bridge(self):
        g, p = barbell(5)
        assert cut_edges(g, p) == [(4, 5)]
        assert g.edge_array[cut_mask(g, p), :2].tolist() == [[4, 5]]

    def test_k4_two_two(self):
        g = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        assert len(cut_edges(g, p)) == 4 == cut_mask(g, p).sum()

    def test_cut_plus_within_is_everything(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 14)
        p = cv.Partition((rng.random(14) < 0.4).astype(np.int8))
        cut = set(cut_edges(g, p))
        edges = tuple_graph(g).undirected_edges
        within = {(u, v) for u, v, _ in edges if p.sides[u] == p.sides[v]}
        every = {(u, v) for u, v, _ in edges}
        assert cut | within == every
        assert not (cut & within)
        # the array cut mask splits edge_array the same way
        mask = cut_mask(g, p)
        pairs = g.edge_array[:, :2].tolist()
        assert {tuple(e) for e, c in zip(pairs, mask) if c} == cut
        assert {tuple(e) for e, c in zip(pairs, mask) if not c} == within
        assert weighted_cut(g, p) == g.edge_array[mask, 2].sum()

    def test_partition_validation(self):
        with pytest.raises(cv.DegenerateStructureError):
            cv.Partition(np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError):
            cv.Partition(np.array([0, 2], dtype=np.int8))
