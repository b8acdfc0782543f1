"""Random-walk machinery shared by the controversy measures.

Covers per-side authority (top-degree) selection, restart-walk stationary
distributions, Monte Carlo walk sampling on the undirected view, and
exact expected hitting times. The restart walks, the user scores and the
hitting times are all systems "identity minus a substochastic walk
step", solved by :func:`_solve`. Every vertex index these take must lie
in [0, n).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

WALK_STEP_CAP = 10**6
HITTING_RTOL = 1e-13  # relative residual at which the hitting-time solve stops
BREAKDOWN_RTOL = np.finfo(float).eps  # shadow product, relative, at which BiCGSTAB starts again


@dataclass(frozen=True)
class RestartWalkConfig:
    """Parameters of the restart-walk solves. ``stationary_rwr`` (and so
    ``rwc_rwr``) runs at most ``max_iters`` BiCGSTAB iterations and stops
    at the relative residual ``tolerance * (1 - damping) / sqrt(n)``, where
    the L1 error of its vector is at most 2 * ``tolerance``; each of the two
    user-score solves runs at most ``max_iters`` BiCGSTAB iterations and
    stops where its max-norm error is at most ``tolerance``."""

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
    with probability 1. With M the uniform step matrix with those rows
    zeroed and r the indicator of ``restart``, the vector is x / x.sum()
    for the solution x of (I - d M^T) x = r, found by :func:`_solve`.
    Its stop, the relative residual tolerance * (1 - d) / sqrt(n), bounds
    the L1 error of the vector by 2 * tolerance: the residual's L1 norm is
    at most sqrt(n) times its 2-norm, the inverse of I - d M^T has L1 norm
    at most 1 / (1 - d), and the exact x sums to at least r.sum(). Raises
    ConvergenceError, with the relative residual, when the solve misses
    its stop in ``max_iters`` iterations or breaks down.
    """
    cfg = cfg or RestartWalkConfig()
    n = g.n_vertices
    restart = _vertex_indices(g, restart, "restart")
    if not restart.size:
        raise ValueError("restart set is empty")
    r = np.zeros(n)
    r[restart] = 1.0
    walks_on = (np.diff(g.out_csr.indptr) > 0).astype(float)
    walks_on[_vertex_indices(g, dangling, "dangling")] = 0.0
    step_t, d = g.transition_t, cfg.damping

    def system(x):
        return x - d * (step_t @ (walks_on * x))

    x = _solve(system, r, cfg.tolerance * (1.0 - d) / math.sqrt(n), cfg.max_iters,
               "restart walk")
    return x / x.sum()


def _dot(a, b) -> float:
    """a . b summed by numpy's own loop: BLAS (``np.dot``) splits long
    vectors over its threads, so its sums change in the last bits with
    the number of CPUs."""
    return float(np.einsum("i,i->", a, b))


def _solve(apply, b, rtol, max_iters, what):
    """x with ``apply(x) = b`` to the relative residual ``rtol`` (2-norm,
    as :func:`_bicgstab` checks it), within ``max_iters`` iterations. Raises
    ConvergenceError, naming the solve ``what`` and its last relative
    residual ``||b - apply(x)|| / ||b||``, when the budget runs out or the
    recurrence breaks down."""
    b_norm = math.sqrt(_dot(b, b))
    x, info = _bicgstab(apply, b, rtol * b_norm, max_iters)
    if info:
        gap = b - apply(x)
        residual = math.sqrt(_dot(gap, gap)) / b_norm
        failure = f"did not converge in {max_iters} iterations" if info > 0 else "broke down"
        raise ConvergenceError(f"{what} {failure} (last relative residual {residual:.3e})",
                               residual=residual)
    return x


def _bicgstab(apply, b, atol, max_iters):
    """Solve ``apply(x) = b`` by BiCGSTAB (van der Vorst 1992) from x = 0.

    Returns ``(x, info)``: info is 0 at the stop, ``max_iters`` when that
    many iterations miss it, and -1 when the recurrence breaks down on the
    first step after a (re)start. The stop is ||r||_2 <= atol for the
    recurrence residual r. The first time r meets it, the true residual
    b - apply(x) must meet it too, or the recurrence starts again from x:
    r drifts from it on high-diameter graphs, and after that one restart
    rounding in b - apply(x) can keep it above atol. A breakdown (a shadow
    product or a step length of 0) also starts again from x; about 1% of
    solves on small random graphs need that once. Every product goes
    through :func:`_dot`, so the result has the same bits on any number of
    CPUs.
    """
    x, r = np.zeros_like(b), b.copy()
    fresh, checked = True, False
    for _ in range(max_iters):
        if fresh:
            shadow = p = r
            rho = shadow_sq = _dot(r, r)
        v = apply(p)
        shadow_v = _dot(shadow, v)
        if shadow_v == 0.0:
            if fresh:
                return x, -1
            fresh = True
            continue
        alpha = rho / shadow_v
        s = r - alpha * v
        t = apply(s)
        t_sq = _dot(t, t)
        omega = _dot(t, s) / t_sq if t_sq else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
        r_sq = _dot(r, r)
        if r_sq <= atol * atol:
            if checked:
                return x, 0
            checked, r = True, b - apply(x)
            if _dot(r, r) <= atol * atol:
                return x, 0
            fresh = True
        else:
            rho_next = _dot(shadow, r)
            fresh = omega == 0.0 or abs(rho_next) <= BREAKDOWN_RTOL * math.sqrt(shadow_sq * r_sq)
            if not fresh:
                p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
                rho = rho_next
    return x, max_iters


def _vertex_indices(g, vertices, what) -> np.ndarray:
    """``vertices`` (an array or any iterable of ints) as an int64 index
    array; raises ValueError naming the first one outside [0, n)."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    found = np.asarray(vertices, dtype=np.int64).reshape(-1)
    bad = found[(found < 0) | (found >= g.n_vertices)]
    if bad.size:
        raise ValueError(f"{what} index {bad[0]} out of range [0, {g.n_vertices})")
    return found


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
    v = int(start)
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"start index {v} out of range [0, {g.n_vertices})")
    terminal_set = terminals if isinstance(terminals, (set, frozenset)) else set(terminals)
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
    with l = 0 on targets: on the free vertices F, the degree-scaled
    grounded system l - D_F^-1 A_FF l = 1, by :func:`_solve` in O(m)
    memory. Raises ConvergenceError, with the relative residual, when the
    solve misses ``HITTING_RTOL`` in 10 |F| iterations. Vertices with no
    target in reach get +inf.
    """
    targets = _vertex_indices(g, targets, "target")
    if not targets.size:
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
    inv_deg = 1.0 / g.degrees[free]
    adjacent = g.csr.matrix(weighted=False)[free][:, free]
    times[free] = _solve(lambda t: t - inv_deg * (adjacent @ t), np.ones(len(free)),
                         HITTING_RTOL, 10 * len(free), "hitting times")
    return times
