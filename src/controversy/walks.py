"""Random-walk machinery shared by the controversy measures.

Covers per-side authority (top-degree) selection, the restart walk's
expected visits per excursion (behind both ``rwc_rwr`` and the user
scores), Monte Carlo walk sampling on the undirected view, and exact
expected hitting times. One builder, :func:`_walk_step`, writes every walk
system x = b + w * (A @ x): :func:`_solve` solves the restart visits and
the hitting times, and ``mblb``'s polarity sweep iterates it. Every vertex
index these take must lie in [0, n).
"""
from __future__ import annotations

import math
import random

import numpy as np

from .errors import ConvergenceError
from .graph import _vertex_indices

WALK_STEP_CAP = 10**6
# hitting-time stop: the relative recurrence residual, then the backward error
# ||b - Ax||_inf <= rtol (||A||_inf ||x||_inf + ||b||_inf), ||A||_inf = 1 + d <= 2
HITTING_RTOL = 1e-13
#: Restart-walk stop: each solve of :func:`_restart_visits` runs at most
#: ``RESTART_MAX_ITERS`` BiCGSTAB iterations and stops where every expected
#: visit count it returns is within ``RESTART_TOL``. A side S's sum of them,
#: which :func:`rwr_conditionals` takes, is then within |S| * RESTART_TOL
#: (the errors share a sign), but it is divided by the walk's mass
#: sum(x) >= |S| (x >= 1_S solves (I - d*M^T) x = 1_S), so for any n each
#: conditional is within RESTART_TOL / m + d * RESTART_TOL / (1 - d), to
#: first order, where d is the damping and m the share of the walks'
#: stationary mass on its end side's authorities (the column sum of the
#: conditionals' table). Each user score a / (a + b) of :func:`rwc_user` is
#: within RESTART_TOL / (a + b).
RESTART_TOL = 1e-10
RESTART_MAX_ITERS = 10000
BREAKDOWN_RTOL = np.finfo(float).eps  # shadow product, relative, at which BiCGSTAB starts again
#: The restart walk's default damping: the chance that an excursion takes
#: one more step (``rwc_rwr``, the user scores, ``--damping``).
DAMPING = 0.85


def default_k(p) -> int:
    """5% of the smaller side, at least 1, on both sides (``mblb`` seeds
    differ: ceil(measures.MBLB_SEED_FRACTION * |side|) of each side)."""
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


def _walk_step(csr, stops, damping=1.0):
    """``(A, w)`` of every walk system x = b + w * (A @ x): A is the
    unweighted adjacency of the CSR view ``csr``, w is damping / out-degree
    on the moving vertices and 0 on the ``stops`` (indices or a mask) and
    on the vertices without neighbours."""
    degrees = np.diff(csr.indptr)
    w = np.divide(damping, degrees, out=np.zeros(len(degrees)), where=degrees > 0)
    w[stops] = 0.0
    return csr.matrix(weighted=False), w


def _restart_visits(g, x_plus, y_plus, damping):
    """The restart walk whose excursions end at the authorities ``x_plus``
    and ``y_plus`` and at every vertex without out-arcs, solved once:
    ``(hits_x, hits_y, hits_end)``. h_B = (I - diag(w) A)^-1 1_B is the
    expected visits to B per excursion from every start vertex under the
    directed view's :func:`_walk_step` at damping d, for B = X+ and Y+;
    ``hits_end()`` gives h_D for the set D of all end vertices (h_X+ + h_Y+
    where D is just the authorities, else one more solve). Each solve is a
    :func:`_solve` within ``RESTART_MAX_ITERS`` iterations, stopped at the
    absolute residual (2-norm) RESTART_TOL * (1 - d): the inverse has
    max-norm at most 1 / (1 - d), and a vector's max-norm is at most its
    2-norm, so each entry of h is within ``RESTART_TOL``. A solve that
    misses its stop raises ConvergenceError. ``damping`` must lie in
    (0, 1), else ValueError (NaN too).
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    adjacency, w = _walk_step(g.out_csr, np.concatenate((x_plus, y_plus)), damping)

    def visits(targets):
        b = np.zeros(g.n_vertices)
        b[targets] = 1.0
        rtol = RESTART_TOL * (1.0 - damping) / math.sqrt(len(targets))
        return _solve(adjacency, w, b, rtol, RESTART_MAX_ITERS, "restart walk")

    hits_x, hits_y = visits(x_plus), visits(y_plus)
    ends = np.flatnonzero(w == 0.0)
    sinks = len(ends) > len(x_plus) + len(y_plus)
    return hits_x, hits_y, (lambda: visits(ends)) if sinks else (lambda: hits_x + hits_y)


def _dot(a, b) -> float:
    """a . b summed by numpy's own loop: BLAS (``np.dot``) splits long
    vectors over its threads, so its sums change in the last bits with
    the number of CPUs."""
    return float(np.einsum("i,i->", a, b))


def _solve(adjacency, w, b, rtol, max_iters, what):
    """x = b + w * (adjacency @ x), the walk system of a :func:`_walk_step`,
    to the relative residual ``rtol`` (2-norm, as :func:`_bicgstab` checks
    it), within ``max_iters`` iterations. Raises ConvergenceError, naming
    the solve ``what`` and its last relative residual, when the budget runs
    out or the recurrence breaks down. b = 0 gives x = 0."""
    def apply(x):
        return x - w * (adjacency @ x)

    b_norm = math.sqrt(_dot(b, b))
    if not b_norm:
        return np.zeros_like(b)
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


def _walker(g, terminals, rng: random.Random):
    """``walk(start)``: the first terminal (``start`` itself if it is one)
    of the uniform-neighbour walk on the undirected view, each step drawn as
    ``rng.randrange(degree)`` draws it: ``degree.bit_length()`` random bits,
    redrawn while they reach the degree. The neighbour tuples, terminal marks
    and bit lengths serve every walk; 10^6 steps raise ConvergenceError."""
    indptr, indices = g.csr.indptr.tolist(), g.csr.indices.tolist()
    neighbours = [tuple(indices[a:b]) for a, b in zip(indptr, indptr[1:])]
    bits = [len(nbrs).bit_length() for nbrs in neighbours]
    stop = bytearray(np.isin(np.arange(g.n_vertices), _vertex_indices(g, terminals, "terminal")))
    getrandbits = rng.getrandbits

    def walk(v):
        if stop[v]:
            return v
        for _ in range(WALK_STEP_CAP):
            nbrs, k = neighbours[v], bits[v]
            if not k:
                break
            r = getrandbits(k)
            while r >= len(nbrs):
                r = getrandbits(k)
            v = nbrs[r]
            if stop[v]:
                return v
        raise ConvergenceError(
            f"walk did not terminate within {WALK_STEP_CAP} steps; "
            "are the terminals reachable from the start vertex?"
        )

    return walk


def sample_walk(g, start, terminals, rng: random.Random) -> int:
    """One :func:`_walker` walk from vertex ``start`` to its first terminal; an
    empty terminal set or an index outside [0, n) raises ValueError."""
    terminals = _vertex_indices(g, terminals, "terminal")
    if not terminals.size:
        raise ValueError("terminals set is empty")
    v = int(start)
    if not 0 <= v < g.n_vertices:
        raise ValueError(f"start index {v} out of range [0, {g.n_vertices})")
    return _walker(g, terminals, rng)(v)


def expected_hitting_times(g, targets) -> np.ndarray:
    """Exact expected steps of the uniform undirected walk to reach any target.

    Solves the absorbing-chain system l_u = 1 + mean(l over neighbors)
    with l = 0 on targets, the :func:`_walk_step` system of the undirected
    view stopped at the targets and at the components holding none, by
    :func:`_solve` in O(m) memory. Raises ConvergenceError, with the
    relative residual, when the solve misses ``HITTING_RTOL`` in 10 |F|
    iterations (F the moving vertices), and with the backward error when
    the times then miss it (2.7e-15 on a 2000-cycle and 1.4e-15 on a
    1000-path, whose relative residuals stay at 4.1e-10 and 6.1e-10 as
    rounding in b - Ax grows with the times). Vertices with no target in
    reach get +inf.
    """
    targets = _vertex_indices(g, targets, "target")
    if not targets.size:
        raise ValueError("targets set is empty")
    unreachable = ~np.isin(g.component_labels, g.component_labels[targets])
    adjacency, w = _walk_step(g.csr, np.concatenate((np.flatnonzero(unreachable), targets)))
    moving = (w > 0.0).astype(float)
    times = _solve(adjacency, w, moving, HITTING_RTOL, 10 * int(moving.sum()), "hitting times")
    gap = np.abs(moving - times + w * (adjacency @ times)).max(initial=0.0)
    error = gap / (2.0 * times.max(initial=0.0) + 1.0)
    if error > HITTING_RTOL:
        raise ConvergenceError(f"hitting times missed the backward error {HITTING_RTOL:.0e} "
                               f"(reached {error:.3e})", residual=error)
    times[unreachable] = np.inf
    return times
