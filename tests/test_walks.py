"""Random-walk engine: terminals, stationary distributions, hitting times."""
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import bicgstab as scipy_bicgstab

import controversy as cv
import controversy.walks as walks_module
from controversy.walks import draw_below, walk_rng

from conftest import barbell, complete, cycle, make_graph, path, random_connected_graph, random_partition
from oracles import (absorbing_absorption_probabilities, dense_expected_steps,
                     dense_stationary_rwr, loop_strict_rank_fraction, sparse_stationary_rwr)


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
            pi = cv.stationary_rwr(g, p.x, np.concatenate(cv.top_degree(g, p, 1)))
            assert float(pi.sum()) == pytest.approx(1.0, abs=1e-9)
            assert (pi >= -1e-15).all()

    def test_matches_dense_solver_on_small_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(3, 51))
            g = random_connected_graph(rng, n, extra_edge_prob=0.1)
            p = random_partition(rng, n)
            authorities = np.concatenate(cv.top_degree(g, p, int(rng.integers(1, 3))))
            cfg = cv.RestartWalkConfig(damping=float(rng.uniform(0.3, 0.95)))
            pi = cv.stationary_rwr(g, p.x, authorities, cfg)
            oracle = dense_stationary_rwr(g, p.x, authorities, cfg.damping)
            assert np.abs(pi - oracle).sum() < 1e-8

    def test_directed_sink_restarts(self):
        # b has no out-arc: all its mass must re-enter through the restart
        g = cv.ConversationGraph(["a", "b"], [(0, 1, 1)], True)
        pi = cv.stationary_rwr(g, [0])
        oracle = dense_stationary_rwr(g, [0], [], 0.85)
        assert np.abs(pi - oracle).sum() < 1e-9

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
        authorities = np.concatenate(cv.top_degree(g, p))
        for side in (p.x, p.y):
            pi = cv.stationary_rwr(g, side, authorities)
            assert np.abs(pi - sparse_stationary_rwr(g, side, authorities, 0.85)).sum() <= 1e-12

    def test_nonconvergence_raises_with_residual(self):
        g = cycle(30)
        with pytest.raises(cv.ConvergenceError, match=r"^restart walk did not converge in "
                           r"2 iterations \(last relative residual ") as excinfo:
            cv.stationary_rwr(g, [0], [], cv.RestartWalkConfig(max_iters=2))
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
            cv.stationary_rwr(g, p.x, [4, 5])
        assert np.isfinite(excinfo.value.residual) and excinfo.value.residual > 0

    def test_breakdown_starts_again_from_last_iterate(self):
        # after one step the residual here is orthogonal to the restart
        # indicator, the shadow residual: scipy's BiCGSTAB stops there
        g = make_graph(6, [(0, 3), (0, 4), (1, 5), (2, 3), (2, 5), (3, 5)])
        walks_on = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        system = np.eye(6) - 0.85 * g.transition_t.toarray() * walks_on
        assert scipy_bicgstab(system, np.array([1.0, 1, 0, 0, 1, 0]))[1] < 0
        pi = cv.stationary_rwr(g, [0, 1, 4], [0, 3])
        assert np.abs(pi - dense_stationary_rwr(g, [0, 1, 4], [0, 3], 0.85)).sum() < 1e-12

    def test_same_bits_for_any_blas_thread_count(self):
        # BLAS splits a dot product over its threads from about 10^4 entries
        code = ("import hashlib, numpy as np, controversy as cv\n"
                "g, p = cv.planted_two_community(cv.PlantedConfig(24000, 3e-4, 5e-5, seed=1))\n"
                "x_plus, y_plus = cv.top_degree(g, p)\n"
                "for values in (cv.stationary_rwr(g, p.x, np.concatenate((x_plus, y_plus))),\n"
                "               cv.expected_hitting_times(g, x_plus), cv.rwc_user(g, p)):\n"
                "    print(hashlib.sha256(values.tobytes()).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       **{var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")})
            digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1

    @pytest.mark.parametrize("restart, dangling, bad", [
        ([-1], (), "restart index -1"), ([7], (), "restart index 7"),
        ([0], [4], "dangling index 4"), ([0], [1, -2], "dangling index -2"),
    ])
    def test_out_of_range_index_rejected(self, restart, dangling, bad):
        with pytest.raises(ValueError, match=rf"^{bad} out of range \[0, 4\)$"):
            cv.stationary_rwr(path(4), restart, dangling)

    def test_empty_restart_rejected(self):
        g = path(2)
        with pytest.raises(ValueError):
            cv.stationary_rwr(g, [])

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            cv.RestartWalkConfig(damping=1.0)


class TestDrawBelow:
    @pytest.mark.parametrize("seed", [0, 1, "7:3", 2**70])
    def test_same_draws_as_randrange(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in [*range(1, 2050), 2**40 + 3]:
            assert draw_below(ours, n) == theirs.randrange(n)
        # the same number of bits was consumed, so later draws agree too
        assert ours.getstate() == theirs.getstate()


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
        terms = set(np.concatenate(cv.top_degree(g, p, 1)).tolist())
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

    @pytest.mark.parametrize("start", [-1, 3])
    def test_out_of_range_start_rejected(self, start):
        with pytest.raises(ValueError, match=rf"^start index {start} out of range \[0, 3\)$"):
            cv.sample_walk(path(3), start, {0}, walk_rng(0, 0))

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
