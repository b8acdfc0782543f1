"""Per-user controversy scores from restart walks and hitting times."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateStructureError
from .partition import Partition
from .walks import HighDegreeSets, RestartWalkConfig, expected_hitting_times


@dataclass(frozen=True)
class UserScore:
    user_id: str
    side: str
    rwc_user: float
    rho: float


def _authority_hits(g, hds: HighDegreeSets, cfg: RestartWalkConfig | None) -> np.ndarray:
    """Expected visits to X+ (column 0) and Y+ (column 1) per excursion of
    the restart walk started at each vertex (one row per start vertex).

    An excursion from u follows uniform out-arcs with probability
    ``damping`` per step and ends at a restart; authorities and vertices
    without out-arcs always restart. With Q the step matrix with those
    rows zeroed, the visits are N = (I - d*Q)^-1 and the rows are
    N @ [1_X+, 1_Y+]. Solved by the fixed-point iteration
    H <- B + d*Q*H. Each step shrinks the max-norm change by a factor of
    at least d, so the remaining error is at most change * d / (1 - d);
    the iteration stops when that bound drops below the configured
    tolerance.
    """
    cfg = cfg or RestartWalkConfig()
    targets = np.zeros((g.n_vertices, 2))
    targets[list(hds.x_plus), 0] = 1.0
    targets[list(hds.y_plus), 1] = 1.0
    restart_row = np.diff(g.out_csr.indptr) == 0
    restart_row[list(hds.all)] = True
    step = g.transition_t.T
    d = cfg.damping
    hits = targets
    for _ in range(cfg.max_iters):
        new = d * (step @ hits)
        new[restart_row] = 0.0
        new += targets
        error_bound = float(np.abs(new - hits).max()) * d / (1.0 - d)
        hits = new
        if error_bound < cfg.tolerance:
            return hits
    raise ConvergenceError(
        f"user restart walks did not converge in {cfg.max_iters} iterations "
        f"(last error bound {error_bound:.3e})",
        residual=error_bound,
    )


def _rwc_user_all(g, p: Partition, hds: HighDegreeSets, cfg: RestartWalkConfig | None) -> np.ndarray:
    """rwc_user of every vertex; NaN where the walk reaches no authority."""
    hits = _authority_hits(g, hds, cfg)
    own = np.where(p.sides == 0, hits[:, 0], hits[:, 1])
    with np.errstate(invalid="ignore"):
        return own / (hits[:, 0] + hits[:, 1])


def rwc_user(g, p: Partition, hds: HighDegreeSets, u, cfg: RestartWalkConfig | None = None) -> float:
    """Probability mass the user's restart walk puts on their own side's
    authorities, normalized over both sides.

    The walk starts and restarts at ``u``; top-degree vertices of both
    sides are dangling and teleport back to ``u`` with probability 1.
    Returns a value in [0, 1], read from the batched solve for all users.
    """
    u = int(u)
    values = _rwc_user_all(g, p, hds, cfg)
    if np.isnan(values[u]):
        count = int(np.isnan(values).sum())
        raise DegenerateStructureError(
            f"the restart walk of user {g.ids[u]!r} reaches no high-degree vertex "
            f"({count} of {g.n_vertices} users)"
        )
    return float(values[u])


def _strict_rank_fraction(values, rel_tol=1e-9) -> np.ndarray:
    """Fraction of vertices with a strictly smaller value.

    Values within solver precision of each other count as ties (the
    hitting times come out of a linear solve, so exact ties reappear with
    1-ulp noise); every finite value is strictly below inf.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    prev, val = values[order[:-1]], values[order[1:]]
    either_inf = np.isinf(prev) | np.isinf(val)
    with np.errstate(invalid="ignore"):
        close = val - prev <= rel_tol * (1.0 + np.abs(val))
    same = np.where(either_inf, np.isinf(prev) & np.isinf(val), close)
    # each vertex ranks at the first index of its chain of ties
    first = np.ones(n, dtype=bool)
    first[1:] = ~same
    ranks = np.empty(n)
    ranks[order] = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    return ranks / n


def hitting_score_all(g, p: Partition, hds: HighDegreeSets) -> np.ndarray:
    """Signed hitting-time score per vertex, in (-1, 1).

    rho(u) = rank_X(u) - rank_Y(u), ranking each vertex by the fraction
    of vertices that reach X+ (resp. Y+) strictly faster. Vertices near
    X's authorities and far from Y's score close to +1.
    """
    l_x = expected_hitting_times(g, hds.x_plus)
    l_y = expected_hitting_times(g, hds.y_plus)
    return _strict_rank_fraction(l_x) - _strict_rank_fraction(l_y)


def user_score_table(g, p: Partition, hds: HighDegreeSets, cfg: RestartWalkConfig | None = None):
    """UserScore rows for every vertex (restart-walk score + hitting rank).

    A user whose restart walk reaches no authority (on a directed graph,
    an account that is only ever retweeted has no out-arc to leave by)
    gets ``rwc_user`` NaN; its ``rho`` comes from the undirected hitting
    times and is always defined.
    """
    rho = hitting_score_all(g, p, hds)
    values = _rwc_user_all(g, p, hds, cfg)
    return [
        UserScore(user_id=g.ids[v], side=p.side_of(v), rwc_user=float(values[v]), rho=float(rho[v]))
        for v in range(g.n_vertices)
    ]


def write_user_scores(rows, path):
    """CSV table: user_id,side,rwc_user,rho (ids quoted where needed)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("user_id", "side", "rwc_user", "rho"))
        writer.writerows((r.user_id, r.side, repr(r.rwc_user), repr(r.rho)) for r in rows)
