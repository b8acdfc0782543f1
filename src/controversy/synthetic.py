"""Planted two-community random graphs and score sweeps over (p1, p2)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import _pool
from .errors import InputDataError
from .graph import CSR, ConversationGraph, largest_component
from .partition import Partition, spectral_bisection
from .measures import rwc_rwr

DEFAULT_P1_GRID = tuple(round(0.002 * i, 3) for i in range(1, 11))
DEFAULT_P2_GRID = (0.0005, 0.001, 0.002, 0.004)
# Uniforms drawn per generator call of the planted sampler (float64, 512 KiB).
PLANTED_CHUNK = 1 << 16


@dataclass(frozen=True)
class PlantedConfig:
    """Two equal Erdos-Renyi blocks with intra probability p1 and cross
    probability p2."""

    n: int
    p1: float
    p2: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise InputDataError("n must be >= 4")
        if self.n % 2:
            raise InputDataError("n must be even")
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise InputDataError(f"{name} must be in [0, 1]")


def planted_two_community(cfg: PlantedConfig):
    """Sample the planted graph; returns (graph, ground-truth partition).

    Vertices 0..n/2-1 form side X, the rest side Y. The random draws
    happen in a fixed order (block X pairs, block Y pairs, cross pairs)
    so the edge set is a pure function of the seed. A block's pairs are
    numbered in row-major order (the upper triangle of a side, or the
    full side X x side Y square) and drawn PLANTED_CHUNK uniforms at a
    time, so memory is O(chunk + m) rather than O(n^2).
    """
    rng = np.random.default_rng(cfg.seed)
    half = cfg.n // 2
    buf = np.empty(PLANTED_CHUNK)
    # pair (i, j > i) of a side is number row_start[i] + j - i - 1 of its triangle
    row_start = np.arange(half, dtype=np.int64)
    row_start = row_start * (2 * half - row_start - 1) // 2
    pairs = []
    for offset in (0, half):
        k = _hits(rng, buf, half * (half - 1) // 2, cfg.p1)
        i = np.searchsorted(row_start, k, side="right") - 1
        pairs.append(np.column_stack((i, k - row_start[i] + i + 1)) + offset)
    xs, ys = np.divmod(_hits(rng, buf, half * half, cfg.p2), half)
    pairs.append(np.column_stack((xs, ys + half)))
    u, v = np.concatenate(pairs).T
    # the pairs are distinct, in range and u < v: build the CSR unchecked
    csr = CSR.from_arcs(cfg.n, np.concatenate((u, v)), np.concatenate((v, u)),
                        np.ones(2 * len(u), dtype=np.int64))
    ids = tuple(map(str, range(cfg.n)))
    graph = ConversationGraph.__new__(ConversationGraph)._assign(ids, False, csr, csr)
    sides = np.zeros(cfg.n, dtype=np.int8)
    sides[half:] = 1
    return graph, Partition(sides)


def _hits(rng, buf, total, prob):
    """Numbers k < total of the pairs whose uniform is below ``prob``,
    drawing the total uniforms in order, one chunk of ``buf`` at a time."""
    hits = []
    for start in range(0, total, len(buf)):
        u = buf[: total - start]
        rng.random(out=u)
        hits.append(np.flatnonzero(u < prob) + start)
    return np.concatenate(hits)


def _cell_seed(base_seed, i1, i2, run) -> int:
    return int(np.random.SeedSequence([int(base_seed), i1, i2, run]).generate_state(1)[0])


def ground_truth_partition_for(sub, n):
    """Planted-block partition restricted to a subgraph (matched by vertex
    id); None when the subgraph lies entirely inside one block."""
    labels = (np.array(sub.ids, dtype=np.int64) >= n // 2).astype(np.int8)
    if not (labels == 0).any() or not (labels == 1).any():
        return None
    return Partition(labels)


@dataclass(frozen=True)
class SweepRow:
    p1: float
    p2: float
    mean_rwc: float
    std_rwc: float
    runs: int

    @property
    def valid(self):
        return self.runs > 0


def rwc_sweep(
    n=2000,
    p1_values=DEFAULT_P1_GRID,
    p2_values=DEFAULT_P2_GRID,
    runs=10,
    base_seed=0,
    k=None,
    use_largest_component=True,
    redetect=False,
):
    """Average restart-walk controversy per (p1, p2) grid cell.

    Scoring uses the planted ground-truth partition unless ``redetect``
    asks for spectral re-partitioning. The largest-component restriction
    is skipped for a run whenever it would leave one side empty (e.g.
    p2 = 0), matching the convention that cross-free sides score 1.
    Cells whose every run degenerates are marked invalid (runs=0).

    Every run is seeded on its own, so the runs are scored in worker
    processes, one per CPU of the process's affinity mask (see
    :func:`controversy._pool.workers`); the rows are the same as from
    one process. The first failing run in grid order raises its error
    here.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    planted = [
        PlantedConfig(n=n, p1=p1, p2=p2, seed=_cell_seed(base_seed, i1, i2, run))
        for i1, p1 in enumerate(p1_values)
        for i2, p2 in enumerate(p2_values)
        for run in range(runs)
    ]
    score = partial(_score_run, k=k, use_largest_component=use_largest_component,
                    redetect=redetect)
    scores = _pool.map_runs(score, planted)
    rows = []
    for c, (p1, p2) in enumerate(product(p1_values, p2_values)):
        cell = np.array([s for s in scores[c * runs : (c + 1) * runs] if s is not None])
        mean, std = (float(cell.mean()), float(cell.std(ddof=0))) if len(cell) else (math.nan,) * 2
        rows.append(SweepRow(p1=p1, p2=p2, mean_rwc=mean, std_rwc=std, runs=len(cell)))
    return rows


def _score_run(planted, k, use_largest_component, redetect):
    """``rwc_rwr`` of one seeded planted graph; None when it has no edge."""
    graph, truth = planted_two_community(planted)
    if graph.n_edges == 0:
        return None
    target, part = graph, truth
    if use_largest_component:
        sub = largest_component(graph)
        sub_truth = ground_truth_partition_for(sub, planted.n)
        if sub_truth is not None:
            target, part = sub, sub_truth
    if redetect:
        part = spectral_bisection(target, seed=planted.seed)
    return rwc_rwr(target, part, k=k)


def write_sweep_csv(rows, path):
    """CSV table: p1,p2,mean_rwc,std_rwc,runs (invalid rows have runs=0)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p1,p2,mean_rwc,std_rwc,runs\n")
        for r in rows:
            fh.write(f"{r.p1!r},{r.p2!r},{r.mean_rwc!r},{r.std_rwc!r},{r.runs}\n")
