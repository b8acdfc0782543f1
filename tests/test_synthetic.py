"""Planted two-community generator and sweeps."""
import math
import tracemalloc

import numpy as np
import pytest

import controversy as cv
from controversy.synthetic import DEFAULT_P1_GRID, DEFAULT_P2_GRID, _cell_seed

from oracles import cut_edges, dense_planted_two_community

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
