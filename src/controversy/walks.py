"""Random-walk machinery shared by the controversy measures.

Covers per-side authority (top-degree) selection, restart-walk stationary
distributions and the package's one fixed-point loop, Monte Carlo walk
sampling on the undirected view, and exact expected hitting times.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .errors import ConvergenceError

WALK_STEP_CAP = 10**6
HITTING_RTOL = 1e-13  # relative residual at which the hitting-time CG stops


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


def default_k(p) -> int:
    """5% of the smaller side, at least 1, on both sides (``mblb`` seeds
    differ: ceil(0.05 * |side|) of each side)."""
    return max(1, math.ceil(0.05 * min(len(p.x), len(p.y))))


def highest_degree(g, side, k):
    """The k highest-degree vertices of the ascending index array ``side``,
    ties to the smaller index."""
    return side[np.argsort(-g.degrees[side], kind="stable")][:k]


def top_degree(g, p, k=None):
    """The authorities ``(x_plus, y_plus)``: each side's k (default
    :func:`default_k`) highest-degree vertices, ties to the smaller index."""
    k = default_k(p) if k is None else k
    if k < 1:
        raise ValueError("k must be >= 1")
    return highest_degree(g, p.x, k), highest_degree(g, p.y, k)


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
    d = cfg.damping

    def step(pi):
        new = d * (g.transition_t @ np.where(restart_row, 0.0, pi))
        new += (d * float(pi[restart_row].sum()) + (1.0 - d)) * r
        return new, float(np.abs(new - pi).sum())

    return fixed_point(step, r, cfg.tolerance, cfg.max_iters, "restart walk", "residual")


def fixed_point(step, x, tol, max_iters, what, measure):
    """Iterate ``x, value = step(x)`` and return the first x whose ``value``
    is below ``tol``. Raises ConvergenceError, naming the solver ``what``
    and the last value of its stop ``measure``, after max_iters steps."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    for _ in range(max_iters):
        x, value = step(x)
        if value < tol:
            return x
    raise ConvergenceError(
        f"{what} did not converge in {max_iters} iterations (last {measure} {value:.3e})",
        residual=value,
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
    with l = 0 on targets: the grounded Laplacian system (D - A) l = d on
    the free vertices F, by Jacobi-preconditioned conjugate gradients in
    O(m) memory. Raises ConvergenceError, with the relative residual, when
    they miss ``HITTING_RTOL`` in 10 |F| iterations. Vertices with no
    target in reach get +inf.
    """
    targets = sorted(set(int(v) for v in targets))
    if not targets:
        raise ValueError("targets set is empty")
    times = np.full(g.n_vertices, np.inf)
    times[targets] = 0.0
    # vertices that can reach a target: those in a target's component
    labels = g.component_labels
    free = np.isin(labels, labels[targets])
    free[targets] = False
    free = np.flatnonzero(free)
    if not free.size:
        return times
    deg = g.degrees[free].astype(float)
    grounded = sp.diags(deg) - g.csr.matrix(weighted=False)[free][:, free]
    budget = 10 * len(free)
    times[free], info = cg(grounded, deg, rtol=HITTING_RTOL, maxiter=budget, M=sp.diags(1.0 / deg))
    if info:
        residual = float(np.linalg.norm(deg - grounded @ times[free]) / np.linalg.norm(deg))
        raise ConvergenceError(f"hitting times did not converge in {budget} iterations "
                               f"(last relative residual {residual:.3e})", residual=residual)
    return times
