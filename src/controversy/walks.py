"""Random-walk machinery shared by the controversy measures.

Covers per-side authority (top-degree) selection, restart-walk stationary
distributions on the directed view, Monte Carlo walk sampling on the
undirected view, and exact expected hitting times.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

WALK_STEP_CAP = 10**6


@dataclass(frozen=True)
class RestartWalkConfig:
    """Parameters of the restart-walk iterations (the stationary power
    iteration and the batched user-score solve)."""

    damping: float = 0.85
    tolerance: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be > 0 and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class HighDegreeSets:
    """Top-k degree vertices of each side (the walk terminals)."""

    x_plus: tuple
    y_plus: tuple
    k: int

    @property
    def all(self):
        return frozenset(self.x_plus) | frozenset(self.y_plus)


def default_k(p) -> int:
    """5% of the smaller side, at least 1 (the same convention the
    dipole-moment seeds use)."""
    return max(1, math.ceil(0.05 * min(len(p.x), len(p.y))))


def highest_degree(g, side, k):
    """The k highest-degree vertices of the ascending index array ``side``,
    ties to the smaller index."""
    return side[np.argsort(-g.degrees[side], kind="stable")][:k]


def top_degree(g, p, k) -> HighDegreeSets:
    """Pick the k highest-degree vertices per side, ties to the smaller index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x_plus, y_plus = (tuple(highest_degree(g, side, k).tolist()) for side in (p.x, p.y))
    return HighDegreeSets(x_plus=x_plus, y_plus=y_plus, k=k)


def stationary_rwr(g, restart, dangling=(), cfg: RestartWalkConfig | None = None) -> np.ndarray:
    """Stationary probability vector of the restart walk on the directed view.

    Each step follows a uniformly random out-arc with probability
    ``damping`` and otherwise restarts uniformly inside ``restart``.
    Vertices in ``dangling`` (and any vertex without out-arcs) restart
    with probability 1. Power iteration stops when the L1 change drops
    below the configured tolerance.
    """
    cfg = cfg or RestartWalkConfig()
    n = g.n_vertices
    restart = sorted(set(int(v) for v in restart))
    if not restart:
        raise ValueError("restart set is empty")
    r = np.zeros(n)
    r[restart] = 1.0 / len(restart)
    restart_row = np.diff(g.out_csr.indptr) == 0
    restart_row[[int(v) for v in dangling]] = True
    step_t = g.transition_t
    pi = r.copy()
    d = cfg.damping
    for _ in range(cfg.max_iters):
        new = d * (step_t @ np.where(restart_row, 0.0, pi))
        new += (d * float(pi[restart_row].sum()) + (1.0 - d)) * r
        residual = float(np.abs(new - pi).sum())
        pi = new
        if residual < cfg.tolerance:
            return pi
    raise ConvergenceError(
        f"restart walk did not converge in {cfg.max_iters} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def walk_rng(seed, walk_index) -> random.Random:
    """Independent per-walk RNG stream derived from (seed, walk index).

    String seeding hashes through SHA-512 inside ``random.Random``, so
    the streams are identical regardless of how walks are scheduled
    across workers.
    """
    return random.Random(f"{seed}:{walk_index}")


def draw_below(rng: random.Random, n: int) -> int:
    """Uniform int in [0, n), drawn exactly as ``rng.randrange(n)`` draws
    it: ``n.bit_length()`` random bits, redrawn while they reach n. The
    stream is the same; randrange's argument checks are skipped."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_walk(g, start, terminals, rng: random.Random) -> int:
    """Uniform-neighbor walk on the undirected view until a terminal is hit.

    Returns the terminal vertex; a start inside ``terminals`` returns
    immediately. Aborts after 10^6 steps (unreachable terminals). Each
    neighbor is drawn by ``draw_below``, as ``rng.randrange(degree)``
    would draw it.
    """
    if not terminals:
        raise ValueError("terminals set is empty")
    terminal_set = terminals if isinstance(terminals, (set, frozenset)) else set(terminals)
    v = int(start)
    if v in terminal_set:
        return v
    # memoryview items are Python ints, cheaper to index than numpy arrays
    indptr, indices = memoryview(g.csr.indptr), memoryview(g.csr.indices)
    for _ in range(WALK_STEP_CAP):
        first = indptr[v]
        deg = indptr[v + 1] - first
        if deg == 0:
            break
        v = indices[first + draw_below(rng, deg)]
        if v in terminal_set:
            return v
    raise ConvergenceError(
        f"walk did not terminate within {WALK_STEP_CAP} steps; "
        "are the terminals reachable from the start vertex?"
    )


def expected_hitting_times(g, targets) -> np.ndarray:
    """Exact expected steps of the uniform undirected walk to reach any target.

    Solves the absorbing-chain system l_u = 1 + mean(l over neighbors)
    with l = 0 on targets. Vertices whose component contains no target
    get +inf.
    """
    targets = sorted(set(int(v) for v in targets))
    if not targets:
        raise ValueError("targets set is empty")
    n = g.n_vertices
    times = np.full(n, np.inf)
    times[targets] = 0.0
    # vertices that can reach a target: those in a target's component
    labels = g.component_labels
    free = np.isin(labels, labels[targets])
    free[targets] = False
    free = np.flatnonzero(free)
    if not free.size:
        return times
    steps = sp.diags(1.0 / g.degrees[free]) @ g.csr.matrix(weighted=False)[free][:, free]
    times[free] = spla.spsolve(sp.identity(len(free), format="csr") - steps, np.ones(len(free)))
    return times
