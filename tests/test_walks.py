"""Random-walk engine: terminals, stationary distributions, hitting times."""
import numpy as np
import pytest

import controversy as cv
from controversy.walks import walk_rng

from conftest import barbell, complete, cycle, make_graph, path, random_connected_graph, random_partition
from oracles import absorbing_absorption_probabilities, dense_expected_steps, dense_stationary_rwr


class TestTopDegree:
    def test_barbell_bridge_endpoints(self):
        g, p = barbell(5)
        hds = cv.top_degree(g, p, 1)
        assert hds.x_plus == (4,) and hds.y_plus == (5,)

    def test_star_hub(self):
        g = make_graph(5, [(0, i) for i in range(1, 5)])
        p = cv.Partition(np.array([0, 0, 1, 1, 1], dtype=np.int8))
        assert cv.top_degree(g, p, 1).x_plus == (0,)

    def test_k_clamps_to_side_size(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        p = cv.Partition(np.array([0, 0, 1, 1], dtype=np.int8))
        hds = cv.top_degree(g, p, 5)
        assert set(hds.x_plus) == {0, 1} and set(hds.y_plus) == {2, 3}

    def test_tie_break_by_index(self):
        g = cycle(6)
        p = cv.Partition(np.array([0, 0, 0, 1, 1, 1], dtype=np.int8))
        hds = cv.top_degree(g, p, 2)
        assert hds.x_plus == (0, 1) and hds.y_plus == (3, 4)

    def test_default_k_is_five_percent_of_smaller_side(self):
        p = cv.Partition(np.array([0] * 30 + [1] * 70, dtype=np.int8))
        assert cv.default_k(p) == 2  # ceil(0.05 * 30)
        p2 = cv.Partition(np.array([0, 1], dtype=np.int8))
        assert cv.default_k(p2) == 1


class TestStationaryRWR:
    def test_single_vertex(self):
        g = cv.ConversationGraph(["a"], [], False)
        pi = cv.stationary_rwr(g, [0])
        assert pi == pytest.approx([1.0])

    def test_two_state_chain_by_hand(self):
        g = cv.ConversationGraph(["a", "b"], [(0, 1, 1)], True)
        pi = cv.stationary_rwr(g, [0], [1], cv.RestartWalkConfig(damping=0.85))
        assert pi[0] == pytest.approx(1 / 1.85, abs=1e-9)
        assert pi[1] == pytest.approx(0.85 / 1.85, abs=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 30)))
            p = random_partition(rng, g.n_vertices)
            pi = cv.stationary_rwr(g, p.x, cv.top_degree(g, p, 1).all)
            assert float(pi.sum()) == pytest.approx(1.0, abs=1e-9)
            assert (pi >= -1e-15).all()

    def test_matches_dense_solver_on_small_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(3, 51))
            g = random_connected_graph(rng, n, extra_edge_prob=0.1)
            p = random_partition(rng, n)
            hds = cv.top_degree(g, p, int(rng.integers(1, 3)))
            cfg = cv.RestartWalkConfig(damping=float(rng.uniform(0.3, 0.95)))
            pi = cv.stationary_rwr(g, p.x, hds.all, cfg)
            oracle = dense_stationary_rwr(g, p.x, hds.all, cfg.damping)
            assert np.abs(pi - oracle).sum() < 1e-8

    def test_directed_sink_restarts(self):
        # b has no out-arc: all its mass must re-enter through the restart
        g = cv.ConversationGraph(["a", "b"], [(0, 1, 1)], True)
        pi = cv.stationary_rwr(g, [0])
        oracle = dense_stationary_rwr(g, [0], [], 0.85)
        assert np.abs(pi - oracle).sum() < 1e-9

    def test_nonconvergence_raises_with_residual(self):
        g = cycle(30)
        with pytest.raises(cv.ConvergenceError) as excinfo:
            cv.stationary_rwr(g, [0], [], cv.RestartWalkConfig(max_iters=2))
        assert excinfo.value.residual > 0

    def test_empty_restart_rejected(self):
        g = path(2)
        with pytest.raises(ValueError):
            cv.stationary_rwr(g, [])

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            cv.RestartWalkConfig(damping=1.0)


class TestSampleWalk:
    def test_start_on_terminal_returns_immediately(self):
        g = path(3)
        rng = walk_rng(0, 0)
        assert cv.sample_walk(g, 1, {1, 2}, rng) == 1

    def test_forced_move(self):
        g = path(2)
        assert cv.sample_walk(g, 0, {1}, walk_rng(0, 0)) == 1

    def test_reproducible_for_fixed_stream(self):
        g, p = barbell(5)
        terms = cv.top_degree(g, p, 1).all
        first = [cv.sample_walk(g, 0, terms, walk_rng(9, i)) for i in range(50)]
        second = [cv.sample_walk(g, 0, terms, walk_rng(9, i)) for i in range(50)]
        assert first == second

    def test_crossing_frequency_matches_absorbing_chain(self):
        # interior terminals so walks genuinely can cross the bridge
        g, p = barbell(5)
        terminals = [0, 9]
        term, probs = absorbing_absorption_probabilities(g, terminals)
        start = 2
        exact_cross = probs[start, term.index(9)]
        assert 0.0 < exact_cross < 1.0
        n = 10000
        crossed = sum(
            cv.sample_walk(g, start, set(terminals), walk_rng(123, i)) == 9
            for i in range(n)
        )
        freq = crossed / n
        sigma = (exact_cross * (1 - exact_cross) / n) ** 0.5
        assert abs(freq - exact_cross) <= 3 * sigma

    def test_unreachable_terminal_errors(self):
        g = make_graph(3, [(0, 1)])  # 2 is isolated
        with pytest.raises(cv.ConvergenceError, match="terminate"):
            cv.sample_walk(g, 2, {0}, walk_rng(0, 0))


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
        for _ in range(10):
            n = int(rng.integers(3, 40))
            g = random_connected_graph(rng, n)
            targets = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            fast = cv.expected_hitting_times(g, targets)
            slow = dense_expected_steps(g, targets)
            assert np.allclose(fast, slow, atol=1e-9)

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
