"""Per-user controversy scores."""
import math

import numpy as np
import pytest

import controversy as cv
from controversy.users import _strict_rank_fraction

from conftest import barbell, complete, cycle, make_graph, two_cliques
from oracles import dense_stationary_rwr, power_rwc_user


class TestRwcUser:
    def test_disconnected_sides_give_one(self):
        g, p = two_cliques(5)
        hds = cv.top_degree(g, p, 1)
        for u in range(5):
            assert cv.rwc_user(g, p, hds, u) == 1.0
        assert [r.rwc_user for r in cv.user_score_table(g, p, hds)] == [1.0] * 10

    def test_mirror_symmetric_vertex_gets_half(self):
        # path 0-1-2-3-4 with the center on side X; the map v -> 4-v swaps
        # the two authorities and fixes the center
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        p = cv.Partition(np.array([0, 0, 0, 1, 1], dtype=np.int8))
        hds = cv.top_degree(g, p, 1)
        assert hds.x_plus == (1,) and hds.y_plus == (3,)
        assert cv.rwc_user(g, p, hds, 2) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_solver(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        hds = cv.top_degree(g, p, 1)
        cfg = cv.RestartWalkConfig()
        for u in range(6):
            pi = cv.stationary_rwr(g, [u], hds.all, cfg)
            oracle = dense_stationary_rwr(g, [u], hds.all, cfg.damping)
            assert np.abs(pi - oracle).sum() < 1e-8
            m_x = oracle[list(hds.x_plus)].sum()
            m_y = oracle[list(hds.y_plus)].sum()
            own = m_x if p.side_of(u) == "X" else m_y
            assert cv.rwc_user(g, p, hds, u, cfg) == pytest.approx(
                own / (m_x + m_y), abs=1e-8
            )

    @pytest.mark.parametrize("graph", ["karate", "planted"])
    def test_matches_power_iteration_oracle(self, graph, karate):
        if graph == "karate":
            g, p = karate
            vertices = range(g.n_vertices)
        else:
            g, p = cv.planted_two_community(cv.PlantedConfig(1000, 0.02, 0.001, seed=1))
            vertices = range(0, g.n_vertices, 10)
        hds = cv.top_degree(g, p, cv.default_k(p))
        cfg = cv.RestartWalkConfig()
        table = cv.user_score_table(g, p, hds, cfg)
        worst = max(abs(table[u].rwc_user - power_rwc_user(g, p, hds, u, cfg)) for u in vertices)
        assert worst < 1e-9

    def test_iteration_budget_raises(self, karate):
        g, p = karate
        hds = cv.top_degree(g, p, 1)
        with pytest.raises(cv.ConvergenceError, match="1 iterations"):
            cv.user_score_table(g, p, hds, cv.RestartWalkConfig(max_iters=1))
        with pytest.raises(ValueError, match="max_iters"):
            cv.RestartWalkConfig(max_iters=0)
        for tolerance in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                cv.RestartWalkConfig(tolerance=tolerance)

    def test_range_and_side_swap_invariance(self, karate):
        g, p = karate
        hds = cv.top_degree(g, p, 1)
        hds_swapped = cv.top_degree(g, p.swapped(), 1)
        for u in (0, 8, 33):
            value = cv.rwc_user(g, p, hds, u)
            assert 0.0 <= value <= 1.0
            assert cv.rwc_user(g, p.swapped(), hds_swapped, u) == value


class TestHittingScores:
    def test_antisymmetric_under_side_swap(self, karate):
        g, p = karate
        hds = cv.top_degree(g, p, 1)
        swapped = cv.top_degree(g, p.swapped(), 1)
        rho = cv.hitting_score_all(g, p, hds)
        rho_swapped = cv.hitting_score_all(g, p.swapped(), swapped)
        assert np.allclose(rho, -rho_swapped, atol=0)

    def test_mirror_pairs_on_even_cycle(self):
        # C6 split into two arcs; the reflection v -> 5-v exchanges the
        # sides and their authorities, so mirrored vertices negate
        g = cycle(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        hds = cv.HighDegreeSets(x_plus=(1,), y_plus=(4,))
        rho = cv.hitting_score_all(g, p, hds)
        for v in range(6):
            assert rho[v] == pytest.approx(-rho[5 - v], abs=1e-12)

    def test_rank_fraction_strictness_with_ties_and_inf(self):
        vals = np.array([0.0, 1.0, 1.0, np.inf, np.inf])
        ranks = _strict_rank_fraction(vals)
        assert list(ranks) == [0.0, 0.2, 0.2, 0.6, 0.6]

    def test_complete_graph_with_all_side_terminals(self):
        # K6, k=|side|: each side's vertices sit on their own authorities,
        # l_own = 0 and l_other = 5/3 uniformly, hence rho = -/+ 0.5
        g = complete(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        hds = cv.top_degree(g, p, 3)
        l_x = cv.expected_hitting_times(g, hds.x_plus)
        assert l_x[list(p.y)] == pytest.approx([5 / 3] * 3, abs=1e-10)
        rho = cv.hitting_score_all(g, p, hds)
        assert rho[list(p.x)] == pytest.approx([-0.5] * 3)
        assert rho[list(p.y)] == pytest.approx([0.5] * 3)

    def test_rho_open_interval(self, karate):
        g, p = karate
        rho = cv.hitting_score_all(g, p, cv.top_degree(g, p, 2))
        assert (rho > -1.0).all() and (rho < 1.0).all()

    def test_barbell_authorities_rank_extreme(self):
        # k=1 picks the bridge endpoints; each authority is the unique
        # vertex with hitting time 0 to its own side, so its own-side rank
        # bottoms out and the pair sits at the signed extremes
        g, p = barbell(5)
        hds = cv.top_degree(g, p, 1)
        assert hds.x_plus == (4,) and hds.y_plus == (5,)
        l_x = cv.expected_hitting_times(g, hds.x_plus)
        assert l_x[4] == 0.0 and (l_x[np.arange(10) != 4] > 0).all()
        rho = cv.hitting_score_all(g, p, hds)
        assert rho[4] == rho.min() and rho[5] == rho.max()
        assert rho[4] == pytest.approx(-rho[5], abs=1e-12)


class TestUserTable:
    def test_table_and_csv(self, tmp_path, karate):
        g, p = karate
        hds = cv.top_degree(g, p, 1)
        rows = cv.user_score_table(g, p, hds)
        assert len(rows) == g.n_vertices
        assert {r.side for r in rows} == {"X", "Y"}
        swapped = cv.user_score_table(g, p.swapped(), cv.top_degree(g, p.swapped(), 1))
        assert [r.rwc_user for r in swapped] == [r.rwc_user for r in rows]
        assert [r.rho for r in swapped] == [-r.rho for r in rows]
        assert [r.side for r in swapped] == [{"X": "Y", "Y": "X"}[r.side] for r in rows]
        out = tmp_path / "users.csv"
        from controversy.users import write_user_scores

        write_user_scores(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,side,rwc_user,rho"
        assert len(lines) == g.n_vertices + 1

    def test_isolated_component_without_authorities_errors(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = cv.Partition(np.array([0, 0, 1, 0, 1, 1], dtype=np.int8))
        # authorities both land in the first triangle
        hds = cv.HighDegreeSets(x_plus=(0,), y_plus=(2,))
        with pytest.raises(cv.DegenerateStructureError, match=r"user '4' .*\(3 of 6 users\)"):
            cv.rwc_user(g, p, hds, 4)
        # the table writes NaN for the unreached component and keeps the rest
        rows = cv.user_score_table(g, p, hds)
        assert [math.isnan(r.rwc_user) for r in rows] == [False] * 3 + [True] * 3
        assert [r.user_id for r in rows] == list(g.ids)
        assert all(not math.isnan(r.rho) for r in rows)
        for v in range(3):
            assert rows[v].rwc_user == cv.rwc_user(g, p, hds, v)
        assert cv.rwc_user(g, p, hds, 1) == pytest.approx(0.5, abs=1e-12)
