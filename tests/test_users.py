"""Per-user controversy scores."""
import math

import numpy as np
import pytest

import controversy as cv
import controversy.walks as walks_module
from controversy.users import _strict_rank_fraction, write_user_scores

from conftest import barbell, complete, cycle, make_graph, random_partition, two_cliques
from oracles import TupleGraph, dense_stationary_rwr, power_rwc_user


class TestRwcUser:
    def test_disconnected_sides_give_one(self):
        g, p = two_cliques(5)
        assert cv.rwc_user(g, p, 1).tolist() == [1.0] * 10
        assert cv.user_score_table(g, p, 1)[0].tolist() == [1.0] * 10

    def test_one_user_call_is_gone(self, karate):
        g, p = karate
        with pytest.raises(TypeError):
            cv.rwc_user(g, p, 1, 4)
        # the damping and the expansion's alpha and k are keywords only, so a
        # number (or an old config object) passed by position is never read
        for call in (cv.rwc_rwr, cv.rwr_conditionals, cv.rwc_user, cv.user_score_table):
            with pytest.raises(TypeError):
                call(g, p, 1, 0.5)
        profiles = [cv.HashtagProfile.make("a", 1, tags={"b": 1}),
                    cv.HashtagProfile.make("b", 1, tags={"a": 1})]
        with pytest.raises(TypeError):
            cv.expand_topic("a", profiles, 0.5)
        # so is an authority pair passed where k belongs
        with pytest.raises(TypeError):
            cv.user_score_table(g, p, cv.top_degree(g, p, 1))

    def test_mirror_symmetric_vertex_gets_half(self):
        # path 0-1-2-3-4 with the center on side X; the map v -> 4-v swaps
        # the two authorities and fixes the center
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        p = cv.Partition(np.array([0, 0, 0, 1, 1], dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p, 1)
        assert x_plus.tolist() == [1] and y_plus.tolist() == [3]
        assert cv.rwc_user(g, p, 1)[2] == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_solver(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p, 1)
        authorities = np.concatenate((x_plus, y_plus))
        d = walks_module.DAMPING
        values = cv.rwc_user(g, p, 1, damping=d)
        for u in range(6):
            oracle = dense_stationary_rwr(g, [u], authorities, d)
            m_x = oracle[x_plus].sum()
            m_y = oracle[y_plus].sum()
            own = m_x if p.side_of(u) == "X" else m_y
            assert values[u] == pytest.approx(own / (m_x + m_y), abs=1e-8)

    @pytest.mark.parametrize("case", ["planted 1000", "directed with sinks"])
    def test_matches_dense_solve_to_1e_11(self, case):
        if case == "directed with sinks":
            # test_walks' graph: 2000 accounts, every fifth one only ever retweeted
            rng = np.random.default_rng(4)
            src, dst = rng.integers(0, 2000, (2, 12000))
            keep = src % 5 != 0
            g = cv.ConversationGraph([str(i) for i in range(2000)],
                                     np.column_stack((src[keep], dst[keep], np.ones(keep.sum()))),
                                     True)
            p = random_partition(rng, 2000)
            vertices = range(0, g.n_vertices, 41)  # every fifth of them a sink
        else:
            g, p = cv.planted_two_community(cv.PlantedConfig(1000, 0.02, 0.001, seed=1))
            vertices = range(0, g.n_vertices, 10)
        x_plus, y_plus = cv.top_degree(g, p)
        authorities = np.concatenate((x_plus, y_plus))
        tuples = TupleGraph(g)
        values = cv.rwc_user(g, p)
        oracle = []
        for u in vertices:
            pi = dense_stationary_rwr(tuples, [u], authorities, 0.85)
            mass = pi[authorities].sum()
            # the dense solve leaves ~1e-17 of noise where no authority is reached
            own = pi[x_plus if p.sides[u] == 0 else y_plus].sum()
            oracle.append(own / mass if mass > 1e-12 else math.nan)
        np.testing.assert_allclose(values[list(vertices)], oracle, rtol=0, atol=1e-11)
        assert case == "planted 1000" or np.isnan(oracle).sum() >= 5

    @pytest.mark.parametrize("graph", ["karate", "planted"])
    def test_matches_power_iteration_oracle(self, graph, karate):
        if graph == "karate":
            g, p = karate
            vertices = range(g.n_vertices)
        else:
            g, p = cv.planted_two_community(cv.PlantedConfig(1000, 0.02, 0.001, seed=1))
            vertices = range(0, g.n_vertices, 10)
        x_plus, y_plus = cv.top_degree(g, p)
        table, _ = cv.user_score_table(g, p, damping=walks_module.DAMPING)
        worst = np.abs(table[list(vertices)] - power_rwc_user(g, p, x_plus, y_plus, vertices)).max()
        assert worst < 1e-9

    def test_iteration_budget_raises(self, karate, monkeypatch):
        monkeypatch.setattr(walks_module, "RESTART_MAX_ITERS", 1)
        g, p = karate
        with pytest.raises(cv.ConvergenceError, match=r"^restart walk did not converge in "
                           r"1 iterations \(last relative residual ") as info:
            cv.user_score_table(g, p, 1)
        assert info.value.residual > 0

    def test_range_and_side_swap_invariance(self, karate):
        g, p = karate
        values = cv.rwc_user(g, p, 1)
        assert ((values >= 0.0) & (values <= 1.0)).all()
        assert cv.rwc_user(g, p.swapped(), 1).tolist() == values.tolist()


class TestHittingScores:
    def test_antisymmetric_under_side_swap(self, karate):
        g, p = karate
        rho = cv.hitting_score_all(g, p, 1)
        rho_swapped = cv.hitting_score_all(g, p.swapped(), 1)
        assert np.allclose(rho, -rho_swapped, atol=0)

    def test_mirror_pairs_on_even_cycle(self):
        # C6 split into two arcs; k = 1 picks authorities 0 and 3, and the
        # rotation v -> v+3 exchanges the sides and their authorities, so
        # rotated vertices negate
        g = cycle(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        assert [a.tolist() for a in cv.top_degree(g, p, 1)] == [[0], [3]]
        rho = cv.hitting_score_all(g, p, 1)
        for v in range(6):
            assert rho[v] == pytest.approx(-rho[(v + 3) % 6], abs=1e-12)

    def test_rank_fraction_strictness_with_ties_and_inf(self):
        vals = np.array([0.0, 1.0, 1.0, np.inf, np.inf])
        ranks = _strict_rank_fraction(vals)
        assert list(ranks) == [0.0, 0.2, 0.2, 0.6, 0.6]

    def test_complete_graph_with_all_side_terminals(self):
        # K6, k=|side|: each side's vertices sit on their own authorities,
        # l_own = 0 and l_other = 5/3 uniformly, hence rho = -/+ 0.5
        g = complete(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        l_x = cv.expected_hitting_times(g, cv.top_degree(g, p, 3)[0])
        assert l_x[list(p.y)] == pytest.approx([5 / 3] * 3, abs=1e-10)
        rho = cv.hitting_score_all(g, p, 3)
        assert rho[list(p.x)] == pytest.approx([-0.5] * 3)
        assert rho[list(p.y)] == pytest.approx([0.5] * 3)

    def test_rho_open_interval(self, karate):
        g, p = karate
        rho = cv.hitting_score_all(g, p, 2)
        assert (rho > -1.0).all() and (rho < 1.0).all()

    def test_barbell_authorities_rank_extreme(self):
        # k=1 picks the bridge endpoints; each authority is the unique
        # vertex with hitting time 0 to its own side, so its own-side rank
        # bottoms out and the pair sits at the signed extremes
        g, p = barbell(5)
        x_plus, y_plus = cv.top_degree(g, p, 1)
        assert x_plus.tolist() == [4] and y_plus.tolist() == [5]
        l_x = cv.expected_hitting_times(g, x_plus)
        assert l_x[4] == 0.0 and (l_x[np.arange(10) != 4] > 0).all()
        rho = cv.hitting_score_all(g, p, 1)
        assert rho[4] == rho.min() and rho[5] == rho.max()
        assert rho[4] == pytest.approx(-rho[5], abs=1e-12)


class TestUserTable:
    def test_table_and_csv(self, tmp_path, karate):
        g, p = karate
        rwc, rho = cv.user_score_table(g, p, 1)
        assert rwc.shape == rho.shape == (g.n_vertices,)
        p_swapped = p.swapped()
        rwc_swapped, rho_swapped = cv.user_score_table(g, p_swapped, 1)
        assert rwc_swapped.tolist() == rwc.tolist()
        assert rho_swapped.tolist() == (-rho).tolist()
        out, out_swapped = tmp_path / "users.csv", tmp_path / "swapped.csv"
        write_user_scores(g, p, (rwc, rho), out)
        write_user_scores(g, p_swapped, (rwc_swapped, rho_swapped), out_swapped)
        lines = out.read_text().splitlines()
        assert lines[0] == "user_id,side,rwc_user,rho"
        rows = [line.split(",") for line in lines[1:]]
        assert rows == [[u, p.side_of(v), repr(float(rwc[v])), repr(float(rho[v]))]
                        for v, u in enumerate(g.ids)]
        assert {r[1] for r in rows} == {"X", "Y"}
        swapped = [line.split(",") for line in out_swapped.read_text().splitlines()[1:]]
        assert [r[1] for r in swapped] == [{"X": "Y", "Y": "X"}[r[1]] for r in rows]

    def test_isolated_component_without_authorities_gives_nan(self, tmp_path):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        p = cv.Partition(np.array([0, 0, 1, 0, 1, 1], dtype=np.int8))
        # k = 1 puts both authorities in the first triangle
        assert [a.tolist() for a in cv.top_degree(g, p, 1)] == [[0], [2]]
        values = cv.rwc_user(g, p, 1)
        assert np.isnan(values).tolist() == [False] * 3 + [True] * 3
        assert values[1] == pytest.approx(0.5, abs=1e-12)
        # the table writes NaN for the unreached component and keeps the rest
        rwc, rho = cv.user_score_table(g, p, 1)
        np.testing.assert_array_equal(rwc, values)
        assert not np.isnan(rho).any()
        out = tmp_path / "users.csv"
        write_user_scores(g, p, (rwc, rho), out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == list(g.ids)
        assert [r[2] == "nan" for r in rows] == [False] * 3 + [True] * 3
