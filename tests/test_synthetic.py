"""Planted two-community generator and sweeps."""
import concurrent.futures
import math
import multiprocessing
import sys
import tracemalloc

import numpy as np
import pytest

import controversy as cv
from controversy import _pool
from controversy.cli import main
from controversy.synthetic import DEFAULT_P1_GRID, DEFAULT_P2_GRID, _cell_seed

from oracles import cut_edges, dense_planted_two_community
from test_graph import assert_sliced_like_rebuilt

# every fourth cell of the default 10 x 4 grid, seeded as run 0 of rwc_sweep(base_seed=0)
GRID_CELLS = [
    cv.PlantedConfig(2000, p1, p2, seed=_cell_seed(0, i1, i2, 0))
    for i1, p1 in enumerate(DEFAULT_P1_GRID)
    for i2, p2 in enumerate(DEFAULT_P2_GRID)
][::4]


class TestGenerator:
    def test_extreme_probabilities(self):
        g, p = cv.planted_two_community(cv.PlantedConfig(n=12, p1=1.0, p2=0.0, seed=0))
        # two disjoint K6 cliques
        assert g.n_edges == 2 * 15
        assert len(cut_edges(g, p)) == 0
        g2, p2 = cv.planted_two_community(cv.PlantedConfig(n=12, p1=1.0, p2=1.0, seed=0))
        assert g2.n_edges == 12 * 11 // 2

    def test_deterministic_given_seed(self):
        cfg = cv.PlantedConfig(n=60, p1=0.2, p2=0.05, seed=9)
        assert cv.planted_two_community(cfg)[0] == cv.planted_two_community(cfg)[0]

    def test_different_seeds_differ(self):
        a = cv.planted_two_community(cv.PlantedConfig(n=60, p1=0.2, p2=0.05, seed=1))[0]
        b = cv.planted_two_community(cv.PlantedConfig(n=60, p1=0.2, p2=0.05, seed=2))[0]
        assert a != b

    def test_edge_count_expectation(self):
        # intra edges ~ Binomial(2*C(n/2,2), p1): check the 30-seed mean
        # stays within 4 sigma of the expectation
        n, p1, p2, seeds = 100, 0.1, 0.02, 30
        pairs_intra = 2 * math.comb(n // 2, 2)
        intra_counts = []
        for s in range(seeds):
            g, p = cv.planted_two_community(cv.PlantedConfig(n=n, p1=p1, p2=p2, seed=s))
            intra_counts.append(g.n_edges - len(cut_edges(g, p)))
        total_mean = np.mean(intra_counts)
        expectation = pairs_intra * p1
        sigma_mean = math.sqrt(pairs_intra * p1 * (1 - p1) / seeds)
        assert abs(total_mean - expectation) < 4 * sigma_mean

    def test_ground_truth_partition_is_the_blocks(self):
        g, p = cv.planted_two_community(cv.PlantedConfig(n=10, p1=1.0, p2=0.0, seed=0))
        assert [g.ids[v] for v in p.x] == [str(i) for i in range(5)]

    def test_odd_n_rejected(self):
        with pytest.raises(cv.InputDataError):
            cv.PlantedConfig(n=7, p1=0.1, p2=0.1)

    def test_probability_bounds_enforced(self):
        with pytest.raises(cv.InputDataError):
            cv.PlantedConfig(n=10, p1=1.5, p2=0.0)


class TestStreamedDraws:
    """The chunked generator against the whole-block oracle."""

    @pytest.mark.parametrize("cfg", [
        cv.PlantedConfig(4, 0.5, 0.5, seed=0),
        cv.PlantedConfig(4, 1.0, 0.0, seed=1),
        cv.PlantedConfig(40, 0.0, 1.0, seed=2),
        cv.PlantedConfig(40, 1.0, 1.0, seed=3),
        cv.PlantedConfig(40, 0.0, 0.0, seed=4),
        # the cross block is 256 x 256, exactly one chunk
        cv.PlantedConfig(512, 0.01, 0.01, seed=5),
        # a side triangle holds 65,703 pairs, one chunk and 167 more
        cv.PlantedConfig(726, 0.01, 0.002, seed=6),
        *GRID_CELLS,
    ], ids=repr)
    def test_same_graph_as_dense_draws(self, cfg):
        g, truth = cv.planted_two_community(cfg)
        ref, ref_truth = dense_planted_two_community(cfg)
        assert g == ref
        for got, want in zip(g.csr, ref.csr):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(truth.sides, ref_truth.sides)

    @pytest.mark.parametrize("cfg", GRID_CELLS, ids=repr)
    def test_largest_component_slices_like_rebuilt(self, cfg):
        g = cv.planted_two_community(cfg)[0]
        sub = cv.largest_component(g)
        assert sub == assert_sliced_like_rebuilt(g, [g.index_of(u) for u in sub.ids])
        # only the sparsest cells fall apart, so slice a random half of each too
        half = np.random.default_rng(cfg.seed).choice(cfg.n, cfg.n // 2, replace=False)
        assert_sliced_like_rebuilt(g, half)

    def test_memory_is_not_quadratic(self):
        # the whole-block draws peak at about 67 MB here
        cfg = cv.PlantedConfig(4000, 0.01, 0.001, seed=1)
        tracemalloc.start()
        try:
            cv.planted_two_community(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSweep:
    def test_zero_cross_rows_score_one(self):
        rows = cv.rwc_sweep(
            n=40, p1_values=[0.5, 0.9], p2_values=[0.0], runs=3, base_seed=1
        )
        for row in rows:
            assert row.valid
            assert row.mean_rwc == 1.0

    def test_degenerate_cell_marked_invalid(self):
        rows = cv.rwc_sweep(n=10, p1_values=[0.0], p2_values=[0.0], runs=2, base_seed=0)
        assert len(rows) == 1
        assert not rows[0].valid
        assert math.isnan(rows[0].mean_rwc)

    def test_monotone_in_p2_on_average(self):
        rows = cv.rwc_sweep(
            n=150,
            p1_values=[0.15],
            p2_values=[0.005, 0.05, 0.3],
            runs=4,
            base_seed=3,
        )
        means = [r.mean_rwc for r in rows]
        assert means[0] >= means[1] - 0.05 >= means[2] - 0.1

    def test_redetect_flag_runs_spectral(self):
        rows = cv.rwc_sweep(
            n=40, p1_values=[0.6], p2_values=[0.02], runs=2, base_seed=5, redetect=True
        )
        assert rows[0].valid and rows[0].mean_rwc > 0.5

    def test_csv_output(self, tmp_path):
        rows = cv.rwc_sweep(n=20, p1_values=[0.5], p2_values=[0.0, 0.4], runs=2, base_seed=2)
        out = tmp_path / "sweep.csv"
        cv.write_sweep_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,p2,mean_rwc,std_rwc,runs"
        assert len(lines) == 3


def _use_workers(monkeypatch, count):
    monkeypatch.setattr(_pool, "workers", lambda tasks: count)


class TestSweepProcesses:
    """The sweep's runs spread over worker processes against one process."""

    @pytest.mark.parametrize("kwargs", [
        dict(n=200, runs=2),
        dict(n=40, p1_values=[0.5, 0.9], p2_values=[0.0], runs=3, base_seed=1),
        dict(n=10, p1_values=[0.0], p2_values=[0.0], runs=2),
        dict(n=40, p1_values=[0.6], p2_values=[0.02, 0.1], runs=2, base_seed=5, redetect=True),
        dict(n=60, p1_values=[0.1], p2_values=[0.01, 0.05], runs=3, base_seed=4,
             use_largest_component=False),
    ], ids=["default-grid", "p2=0", "degenerate", "redetect", "full-graph"])
    def test_same_rows_as_one_process(self, kwargs, monkeypatch):
        _use_workers(monkeypatch, 1)
        serial = cv.rwc_sweep(**kwargs)
        _use_workers(monkeypatch, 2)
        pooled = cv.rwc_sweep(**kwargs)
        # NaN != NaN, so compare the rows' reprs as well as the rows
        assert repr(pooled) == repr(serial)
        assert all(math.isnan(r.mean_rwc) for r in pooled if not r.valid)
        assert [r for r in pooled if r.valid] == [r for r in serial if r.valid]
        assert multiprocessing.active_children() == []

    def test_same_convergence_error(self, monkeypatch):
        errors = []
        for count in (1, 2):
            _use_workers(monkeypatch, count)
            with pytest.raises(cv.ConvergenceError) as info:
                cv.rwc_sweep(n=40, p1_values=[0.3, 0.5], p2_values=[0.05], runs=2,
                             cfg=cv.RestartWalkConfig(max_iters=1))
            errors.append((str(info.value), info.value.residual))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]
        assert errors[0][1] > 0

    def test_cli_error_is_the_same(self, monkeypatch, tmp_path, capsys):
        results = []
        for count in (1, 2):
            _use_workers(monkeypatch, count)
            code = main(["simulate", "--k", "0", "--n", "40", "--runs", "2",
                         "--p1-grid", "0.3,0.5", "--p2-grid", "0.05",
                         "--out", str(tmp_path / "sweep.csv")])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2 and "k must be >= 1" in results[0][1]
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_cell_fails_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(_pool, "map_runs", no_run)
        with pytest.raises(cv.InputDataError, match="p2 must be in"):
            cv.rwc_sweep(n=40, p1_values=[0.3], p2_values=[0.1, 1.5], runs=1)

    @pytest.mark.parametrize("runs, p2_values, count", [(1, [0.05], None), (2, [0.05], 1)])
    def test_no_process_for_one_worker(self, runs, p2_values, count, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        if count is not None:
            _use_workers(monkeypatch, count)
        rows = cv.rwc_sweep(n=40, p1_values=[0.3], p2_values=p2_values, runs=runs)
        assert rows[0].valid

    @pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks on Linux only")
    def test_worker_count_rules(self, monkeypatch):
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(_pool.threading, "active_count", lambda: 1)
        assert _pool.workers(1) == 1
        assert _pool.workers(2) == 2
        assert _pool.workers(40) == 3
        monkeypatch.setattr(_pool.threading, "active_count", lambda: 2)
        assert _pool.workers(40) == 1
        monkeypatch.undo()
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0})
        assert _pool.workers(40) == 1
