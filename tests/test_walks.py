"""Random-walk engine: terminals, restart walks, hitting times."""
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import bicgstab as scipy_bicgstab

import controversy as cv
import controversy.walks as walks_module

from conftest import barbell, complete, cycle, make_graph, path, random_connected_graph, random_partition
from oracles import (absorbing_absorption_probabilities, dense_expected_steps,
                     dense_rwr_conditionals, dense_stationary_rwr, loop_strict_rank_fraction,
                     sparse_rwr_solver, sparse_stationary_rwr)


class TestTopDegree:
    def test_barbell_bridge_endpoints(self):
        g, p = barbell(5)
        x_plus, y_plus = cv.top_degree(g, p, 1)
        assert x_plus.tolist() == [4] and y_plus.tolist() == [5]

    def test_star_hub(self):
        g = make_graph(5, [(0, i) for i in range(1, 5)])
        p = cv.Partition(np.array([0, 0, 1, 1, 1], dtype=np.int8))
        assert cv.top_degree(g, p, 1)[0].tolist() == [0]

    def test_k_clamps_to_side_size(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p, 5)
        assert x_plus.tolist() == [1, 0] and y_plus.tolist() == [2, 3]

    def test_tie_break_by_index(self):
        g = cycle(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p, 2)
        assert x_plus.tolist() == [0, 1] and y_plus.tolist() == [3, 4]

    def test_k_defaults_to_default_k_and_must_be_positive(self):
        g = cycle(100)
        p = cv.Partition(np.array([0] * 30 + [1] * 70, dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p)  # default_k(p) == 2
        assert x_plus.tolist() == [0, 1] and y_plus.tolist() == [30, 31]
        with pytest.raises(ValueError, match="k must be >= 1"):
            cv.top_degree(g, p, 0)

    def test_default_k_is_five_percent_of_smaller_side(self):
        p = cv.Partition(np.array([0] * 30 + [1] * 70, dtype=np.int8))
        assert cv.default_k(p) == 2  # ceil(0.05 * 30)
        p2 = cv.Partition(np.array([0, 1], dtype=np.int8))
        assert cv.default_k(p2) == 1


class TestWalkStep:
    @pytest.mark.parametrize("name", ["karate", "planted", "path", "star", "directed"])
    def test_walk_step_is_the_damped_uniform_step(self, name, karate):
        g = {
            "karate": lambda: karate[0],
            "planted": lambda: cv.planted_two_community(cv.PlantedConfig(300, 0.05, 0.01, seed=2))[0],
            "path": lambda: path(7),
            "star": lambda: make_graph(6, [(0, i) for i in range(1, 6)]),
            "directed": lambda: make_graph(5, [(0, 1), (0, 2), (1, 0), (3, 1), (3, 2), (3, 0)],
                                           directed=True),
        }[name]()
        n, d = g.n_vertices, 0.85
        uniform = np.zeros((n, n))
        for u in range(n):
            heads = g.out_csr.indices[g.out_csr.indptr[u]:g.out_csr.indptr[u + 1]]
            uniform[u, heads] = 1.0 / len(heads) if len(heads) else 0.0
        stops = [0, n // 2]
        adjacency, w = walks_module._walk_step(g.out_csr, stops, d)
        assert adjacency.format == "csr" and (adjacency.data == 1.0).all()
        assert np.array_equal(adjacency.indptr, g.out_csr.indptr)
        step = w[:, None] * adjacency.toarray()
        no_out_arcs = uniform.sum(axis=1) == 0.0
        moving = np.ones(n, dtype=bool)
        moving[stops] = False
        moving &= ~no_out_arcs
        assert (step[stops] == 0.0).all() and (step[no_out_arcs] == 0.0).all()
        np.testing.assert_allclose(step[moving], d * uniform[moving], rtol=1e-15)
        np.testing.assert_allclose(step[moving].sum(axis=1), d, rtol=1e-15)
        # only the directed case has vertices without out-arcs: 2 and 4
        assert no_out_arcs.sum() == (2 if name == "directed" else 0)


def rwr_bound(c_mass, d):
    """The bound ``walks.RESTART_TOL`` states on each conditional of an end
    side with stationary mass ``c_mass`` at damping ``d``."""
    tol = walks_module.RESTART_TOL
    return tol / c_mass + d * tol / (1 - d)


class TestRestartWalk:
    def test_isolated_sides_score_one(self):
        # both vertices are authorities without out-arcs: each walk stays put
        g = cv.ConversationGraph(["a", "b"], [], False)
        p = cv.Partition(np.array([0, 1], dtype=np.int8))
        assert cv.rwr_conditionals(g, p).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert cv.rwc_rwr(g, p) == 1.0

    def test_directed_chain_by_hand(self):
        # X = {0, 1, 3, 5}, Y = {2, 4}; the authorities 0 and 2 and the
        # vertex 4 have no out-arc. Restarting on X: x1 = x3 = x5 = 1,
        # x0 = 1 + 7d/3, x2 = x4 = d/3, so 1_X+ . x = 1 + 7d/3 of a total
        # 4 + 3d and 1_Y+ . x = d/3; restarting on Y, half the mass sits
        # on Y+ and none on X+. Bayes with weights 4/6, 2/6 gives
        # Pr[X | Y+] = 4d / (12 + 13d).
        g = make_graph(6, [(1, 0), (1, 2), (1, 4), (3, 0), (5, 0)], directed=True)
        p = cv.Partition(np.array([0, 0, 1, 0, 1, 0], dtype=np.int8))
        assert [a.tolist() for a in cv.top_degree(g, p)] == [[0], [2]]
        d = 0.85
        c = cv.rwr_conditionals(g, p, damping=d)
        c_xy = 4 * d / (12 + 13 * d)
        np.testing.assert_allclose(c, [[1.0, c_xy], [0.0, 1.0 - c_xy]], rtol=0, atol=1e-14)
        assert cv.rwc_rwr(g, p) == pytest.approx(1.0 - c_xy, abs=1e-14)

    def test_conditionals_are_probabilities(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 30)))
            p = random_partition(rng, g.n_vertices)
            c = cv.rwr_conditionals(g, p, 1)
            assert np.allclose(c.sum(axis=0), 1.0, rtol=0, atol=1e-15)
            assert ((c >= 0.0) & (c <= 1.0)).all()

    def test_matches_dense_solver_on_small_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(3, 51))
            g = random_connected_graph(rng, n, extra_edge_prob=0.1)
            p = random_partition(rng, n)
            k = int(rng.integers(1, 3))
            d = float(rng.uniform(0.3, 0.95))
            c = cv.rwr_conditionals(g, p, k, damping=d)
            oracle, _ = dense_rwr_conditionals(g, p, *cv.top_degree(g, p, k), d)
            assert np.abs(c - oracle).max() < 1e-8

    def test_directed_sink_restarts(self):
        # vertex 0, X's authority, is only ever retweeted, and so is every
        # seventh other account: 0 ends excursions as an authority and as
        # a sink, and must be counted once in the walks' total mass
        rng = np.random.default_rng(11)
        src, dst = rng.integers(1, 300, (2, 1500))
        keep = src % 7 != 0
        src = np.concatenate((src[keep], rng.integers(1, 300, 60)))
        dst = np.concatenate((dst[keep], np.zeros(60, dtype=np.int64)))
        g = cv.ConversationGraph([str(i) for i in range(300)],
                                 np.column_stack((src, dst, np.ones(len(src)))), True)
        sides = (rng.random(300) < 0.5).astype(np.int8)
        sides[0] = 0
        p = cv.Partition(sides)
        x_plus, y_plus = cv.top_degree(g, p)
        sinks = np.flatnonzero(np.diff(g.out_csr.indptr) == 0)
        assert 0 in x_plus and len(np.setdiff1d(sinks, [*x_plus, *y_plus])) >= 30
        d = walks_module.DAMPING
        c = cv.rwr_conditionals(g, p, damping=d)
        oracle, mass = dense_rwr_conditionals(g, p, x_plus, y_plus, d)
        assert (np.abs(c - oracle) <= rwr_bound(mass, d)).all()
        assert np.abs(c - oracle).max() < 1e-12
        assert cv.rwr_conditionals(g, p.swapped(), damping=d).tolist() == c[::-1, ::-1].tolist()
        # each user score a / (a + b) is within RESTART_TOL / (a + b) of
        # the exact one, and a + b is at least the authorities' mass
        values = cv.rwc_user(g, p, damping=d)
        for u in range(0, 300, 3):
            pi = dense_stationary_rwr(g, [u], [*x_plus, *y_plus], d)
            m_x, m_y = pi[x_plus].sum(), pi[y_plus].sum()
            if m_x + m_y < 1e-12:
                assert np.isnan(values[u])
                continue
            own = m_x if p.sides[u] == 0 else m_y
            assert abs(values[u] - own / (m_x + m_y)) <= walks_module.RESTART_TOL / (m_x + m_y)

    @pytest.mark.parametrize("case", ["planted 1000", "planted 3000", "directed with sinks"])
    def test_matches_exact_solve_to_1e_12(self, case):
        if case == "directed with sinks":
            # 2000 accounts, every fifth one only ever retweeted
            rng = np.random.default_rng(4)
            src, dst = rng.integers(0, 2000, (2, 12000))
            keep = src % 5 != 0
            g = cv.ConversationGraph([str(i) for i in range(2000)],
                                     np.column_stack((src[keep], dst[keep], np.ones(keep.sum()))),
                                     True)
            p = random_partition(rng, 2000)
            assert (np.diff(g.out_csr.indptr) == 0).sum() >= 400
        else:
            n = int(case.split()[1])
            cfg = cv.PlantedConfig(n, 0.02, 0.001, seed=1) if n == 1000 else \
                cv.PlantedConfig(n, 0.008, 0.0005, seed=1)
            g, p = cv.planted_two_community(cfg)
        x_plus, y_plus = cv.top_degree(g, p)
        authorities = np.concatenate((x_plus, y_plus))
        table = np.empty((2, 2))
        for start, side in enumerate((p.x, p.y)):
            pi = sparse_stationary_rwr(g, side, authorities, 0.85)
            table[start] = len(side) * pi[x_plus].sum(), len(side) * pi[y_plus].sum()
        assert np.abs(cv.rwr_conditionals(g, p) - table / table.sum(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-6])
    def test_side_sums_carry_the_side_size(self, tolerance, monkeypatch):
        # the visit counts summed over a side are off by up to |S| *
        # tolerance, and the walk's total mass is at least |S|
        monkeypatch.setattr(walks_module, "RESTART_TOL", tolerance)
        g, p = cv.planted_two_community(cv.PlantedConfig(1000, 0.02, 0.001, seed=1))
        x_plus, y_plus = cv.top_degree(g, p)
        d = walks_module.DAMPING
        hits = walks_module._restart_visits(g, x_plus, y_plus, d)[:2]
        solve = sparse_rwr_solver(g, [*x_plus, *y_plus], d)
        table = np.empty((2, 2))
        for start, side in enumerate((p.x, p.y)):
            restart = np.zeros(g.n_vertices)
            restart[side] = 1.0
            x = solve(restart)  # by duality 1_side . h_B = 1_B . x
            assert x.sum() >= len(side)
            for end, (authorities, h) in enumerate(zip((x_plus, y_plus), hits)):
                assert abs(h[side].sum() - x[authorities].sum()) <= len(side) * tolerance
                table[start, end] = len(side) / g.n_vertices * x[authorities].sum() / x.sum()
        mass = table.sum(axis=0)
        error = np.abs(cv.rwr_conditionals(g, p) - table / mass)
        assert (error <= rwr_bound(mass, d)).all()

    @pytest.mark.parametrize("directed", [False, True])
    def test_stated_bounds_hold_at_a_loose_tolerance(self, directed, monkeypatch):
        monkeypatch.setattr(walks_module, "RESTART_TOL", 1e-3)
        rng = np.random.default_rng(6)
        src, dst = rng.integers(0, 400, (2, 2400))
        keep = (src % 5 != 0) | (not directed)
        g = cv.ConversationGraph([str(i) for i in range(400)],
                                 np.column_stack((src[keep], dst[keep], np.ones(keep.sum()))),
                                 directed)
        p = random_partition(rng, 400)
        x_plus, y_plus = cv.top_degree(g, p)
        d = walks_module.DAMPING
        oracle, mass = dense_rwr_conditionals(g, p, x_plus, y_plus, d)
        error = np.abs(cv.rwr_conditionals(g, p) - oracle)
        assert 1e-12 < error.max() and (error <= rwr_bound(mass, d)).all()
        # every visit count within 1e-3: a / (a + b) within 1e-3 / (a + b),
        # and a + b is at least the authorities' mass
        values = cv.rwc_user(g, p)
        for u in range(0, 400, 7):
            pi = dense_stationary_rwr(g, [u], [*x_plus, *y_plus], d)
            m_x, m_y = pi[x_plus].sum(), pi[y_plus].sum()
            if m_x + m_y > 1e-12:
                own = m_x if p.sides[u] == 0 else m_y
                assert abs(values[u] - own / (m_x + m_y)) <= 1e-3 / (m_x + m_y)

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(walks_module, "RESTART_MAX_ITERS", 2)
        g = cycle(30)
        p = cv.Partition(np.repeat(np.array([0, 1], dtype=np.int8), 15))
        with pytest.raises(cv.ConvergenceError, match=r"^restart walk did not converge in "
                           r"2 iterations \(last relative residual ") as excinfo:
            cv.rwc_rwr(g, p, 1)
        assert excinfo.value.residual > 0

    @pytest.mark.parametrize("info, failure", [(10000, "did not converge in 10000 iterations"),
                                               (-1, "broke down")])
    def test_solver_failure_raises_with_residual(self, monkeypatch, info, failure):
        def failing(apply, b, atol, max_iters):
            return np.zeros_like(b), info

        monkeypatch.setattr(walks_module, "_bicgstab", failing)
        g, p = barbell(5)
        with pytest.raises(cv.ConvergenceError, match=rf"^restart walk {failure} "
                           r"\(last relative residual ") as excinfo:
            cv.rwr_conditionals(g, p, 1)
        assert np.isfinite(excinfo.value.residual) and excinfo.value.residual > 0

    def test_breakdown_starts_again_from_last_iterate(self):
        # after one step the residual of either authority's visit solve is
        # orthogonal to its right-hand side, the shadow residual (both
        # authorities end excursions): scipy's BiCGSTAB stops there
        g = make_graph(7, [(0, 2), (0, 3), (0, 6), (1, 3), (1, 5), (3, 5), (3, 6), (4, 5), (5, 6)])
        p = cv.Partition(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.int8))
        x_plus, y_plus = cv.top_degree(g, p)
        assert x_plus.tolist() == [3] and y_plus.tolist() == [0]
        adjacency, w = walks_module._walk_step(g.out_csr, [0, 3], 0.85)
        system = np.eye(7) - w[:, None] * adjacency.toarray()
        for authority in (0, 3):
            assert scipy_bicgstab(system, np.eye(7)[authority])[1] < 0
        oracle, _ = dense_rwr_conditionals(g, p, x_plus, y_plus, 0.85)
        assert np.abs(cv.rwr_conditionals(g, p) - oracle).max() < 1e-12

    def test_same_bits_for_any_blas_thread_count(self):
        # BLAS splits a dot product over its threads from about 10^4 entries
        code = ("import hashlib, numpy as np, controversy as cv\n"
                "g, p = cv.planted_two_community(cv.PlantedConfig(24000, 3e-4, 5e-5, seed=1))\n"
                "x_plus, y_plus = cv.top_degree(g, p)\n"
                "for values in (cv.rwr_conditionals(g, p), cv.expected_hitting_times(g, x_plus),\n"
                "               cv.rwc_user(g, p)):\n"
                "    print(hashlib.sha256(values.tobytes()).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       **{var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")})
            digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1

    def test_damping_validation(self):
        g, p = barbell(5)
        with pytest.raises(ValueError, match=r"damping must be in \(0, 1\)"):
            cv.rwc_rwr(g, p, damping=1.0)
        with pytest.raises(ValueError, match=r"damping must be in \(0, 1\)"):
            cv.rwc_user(g, p, damping=0.0)
        with pytest.raises(ValueError, match=r"damping must be in \(0, 1\)"):
            cv.user_score_table(g, p, damping=float("nan"))


class TestWalkDraws:
    @pytest.mark.parametrize("seed", [0, 1, "7:3", 2**70])
    def test_same_draws_as_randrange(self, seed):
        # a star whose leaves are all terminals: a walk from the hub draws
        # one neighbour, which must be randrange's pick from the same stream
        ours, theirs = random.Random(seed), random.Random(seed)
        for degree in [*range(1, 70), 127, 128, 129, 1023, 1024, 1025, 2047, 2048, 2049]:
            g = make_graph(degree + 1, [(0, leaf) for leaf in range(1, degree + 1)])
            walk = walks_module._walker(g, range(1, degree + 1), ours)
            assert walk(0) == 1 + theirs.randrange(degree)
        # the same number of bits was consumed, so later draws agree too
        assert ours.getstate() == theirs.getstate()


class TestSampleWalk:
    def test_start_on_terminal_returns_immediately(self):
        g = path(3)
        assert cv.sample_walk(g, 1, {1, 2}, random.Random(0)) == 1

    def test_forced_move(self):
        g = path(2)
        assert cv.sample_walk(g, 0, {1}, random.Random(0)) == 1

    def test_reproducible_for_fixed_stream(self):
        g, p = barbell(5)
        terms = set(np.concatenate(cv.top_degree(g, p, 1)).tolist())
        a, b = random.Random(9), random.Random(9)
        first = [cv.sample_walk(g, 0, terms, a) for _ in range(50)]
        second = [cv.sample_walk(g, 0, terms, b) for _ in range(50)]
        assert first == second

    def test_crossing_frequency_matches_absorbing_chain(self):
        # interior terminals so walks genuinely can cross the bridge
        g, p = barbell(5)
        terminals = [0, 9]
        term, probs = absorbing_absorption_probabilities(g, terminals)
        start = 2
        exact_cross = probs[start, term.index(9)]
        assert 0.0 < exact_cross < 1.0
        n, rng = 10000, random.Random(123)
        crossed = sum(cv.sample_walk(g, start, set(terminals), rng) == 9 for _ in range(n))
        freq = crossed / n
        sigma = (exact_cross * (1 - exact_cross) / n) ** 0.5
        assert abs(freq - exact_cross) <= 3 * sigma

    @pytest.mark.parametrize("start", [-1, 3])
    def test_out_of_range_start_rejected(self, start):
        with pytest.raises(ValueError, match=rf"^start index {start} out of range \[0, 3\)$"):
            cv.sample_walk(path(3), start, {0}, random.Random(0))

    @pytest.mark.parametrize("terminal", [-1, 3])
    def test_out_of_range_terminal_rejected(self, terminal):
        with pytest.raises(ValueError, match=rf"^terminal index {terminal} out of range \[0, 3\)$"):
            cv.sample_walk(path(3), 0, {terminal}, random.Random(0))

    @pytest.mark.parametrize("terminals, end", [([0], 0), ([0, 1], 1)])
    def test_terminal_index_array(self, terminals, end):
        # top_degree's authorities are index arrays; the walk 2 -> 1 -> 0 is forced
        assert cv.sample_walk(path(3), 2, np.array(terminals), random.Random(0)) == end

    @pytest.mark.parametrize("terminals", [set(), np.array([], dtype=np.int64)], ids=repr)
    def test_empty_terminal_set_rejected(self, terminals):
        with pytest.raises(ValueError, match="^terminals set is empty$"):
            cv.sample_walk(path(3), 0, terminals, random.Random(0))

    def test_unreachable_terminal_errors(self):
        g = make_graph(3, [(0, 1)])  # 2 is isolated
        with pytest.raises(cv.ConvergenceError, match="terminate"):
            cv.sample_walk(g, 2, {0}, random.Random(0))


class TestHittingTimes:
    def test_target_is_zero(self):
        g = path(4)
        times = cv.expected_hitting_times(g, [2])
        assert times[2] == 0.0

    def test_two_vertex_path(self):
        g = path(2)
        assert cv.expected_hitting_times(g, [1])[0] == pytest.approx(1.0, abs=1e-10)

    def test_four_cycle_hand_solved(self):
        g = cycle(4)
        times = cv.expected_hitting_times(g, [0])
        assert times[0] == 0.0
        assert times[1] == pytest.approx(3.0, abs=1e-10)
        assert times[2] == pytest.approx(4.0, abs=1e-10)
        assert times[3] == pytest.approx(3.0, abs=1e-10)

    def test_unreachable_is_infinite(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        times = cv.expected_hitting_times(g, [0])
        assert times[1] == pytest.approx(1.0)
        assert np.isinf(times[2]) and np.isinf(times[3])

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(10):
            n = int(rng.integers(3, 40))
            targets = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            cases.append((random_connected_graph(rng, n), targets))
        # high diameter (CG needs about |F| iterations there), a hub, a clique
        cases += [(path(1000), [0]), (cycle(2000), [0, 700]),
                  (make_graph(50, [(0, i) for i in range(1, 50)]), [7]), (complete(30), [3, 4])]
        for g, targets in cases:
            np.testing.assert_allclose(cv.expected_hitting_times(g, targets),
                                       dense_expected_steps(g, targets), rtol=1e-10)
        # planted graphs (not always connected), both sides' authorities as targets
        for n, p1 in ((200, 0.08), (1000, 0.02)):
            g, p = cv.planted_two_community(cv.PlantedConfig(n, p1, 0.001, seed=1))
            slow = []
            for authorities in cv.top_degree(g, p):
                slow.append(dense_expected_steps(g, authorities))
                np.testing.assert_allclose(cv.expected_hitting_times(g, authorities), slow[-1],
                                           rtol=1e-10)
            rho = loop_strict_rank_fraction(slow[0]) - loop_strict_rank_fraction(slow[1])
            assert np.array_equal(cv.hitting_score_all(g, p), rho)

    @pytest.mark.parametrize("g, targets", [(cycle(2000), [0, 700]), (path(1000), [0])])
    def test_backward_error_within_the_stop(self, g, targets):
        # the relative residual stays far above the stop on high-diameter
        # graphs, as rounding in b - Ax grows with the times
        times = cv.expected_hitting_times(g, targets)
        moving = np.ones(g.n_vertices)
        moving[targets] = 0.0
        mean = (g.csr.matrix(weighted=False) @ times) / g.degrees
        gap = np.where(moving == 1.0, 1.0 - times + mean, -times)
        backward = np.abs(gap).max() / (2.0 * np.abs(times).max() + 1.0)
        assert backward <= walks_module.HITTING_RTOL
        assert np.linalg.norm(gap) / np.linalg.norm(moving) > walks_module.HITTING_RTOL

    def test_missed_backward_error_raises_with_its_value(self, monkeypatch):
        # a "solve" that returns x = b: on path(4) with target 0, vertex 3's
        # row is off by its neighbour's 1, against 2 * ||x|| + ||b|| = 3
        monkeypatch.setattr(walks_module, "_bicgstab", lambda apply, b, atol, n: (b.copy(), 0))
        with pytest.raises(cv.ConvergenceError, match=r"^hitting times missed the backward "
                           r"error 1e-13 \(reached 3\.333e-01\)$") as excinfo:
            cv.expected_hitting_times(path(4), [0])
        assert excinfo.value.residual == pytest.approx(1 / 3)

    @pytest.mark.parametrize("targets, bad", [([-1], -1), ([4], 4), ([0, 9], 9)])
    def test_out_of_range_target_rejected(self, targets, bad):
        with pytest.raises(ValueError, match=rf"^target index {bad} out of range \[0, 4\)$"):
            cv.expected_hitting_times(path(4), targets)

    def test_adding_targets_never_increases(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 25))
            g = random_connected_graph(rng, n)
            t1 = {int(rng.integers(0, n))}
            t2 = t1 | {int(rng.integers(0, n))}
            a = cv.expected_hitting_times(g, t1)
            b = cv.expected_hitting_times(g, t2)
            assert (b <= a + 1e-9).all()

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 20)
        times = cv.expected_hitting_times(g, [0, 3])
        assert (times >= 0).all()
