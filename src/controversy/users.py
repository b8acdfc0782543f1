"""Per-user controversy scores from restart walks and hitting times."""
from __future__ import annotations

import csv

import numpy as np

from .partition import Partition
from .walks import DAMPING, _restart_visits, expected_hitting_times, top_degree


def rwc_user(g, p: Partition, k=None, *, damping=DAMPING) -> np.ndarray:
    """Own-side share of the authority mass of each user's restart walk:
    one value per vertex in [0, 1], NaN where the walk reaches no authority.

    The walk starts and restarts at the user. An excursion follows uniform
    out-arcs with probability ``damping`` per step and ends at a restart;
    authorities (X+ and Y+) and vertices without out-arcs always restart.
    With Q the step matrix with those rows zeroed, the expected visits to
    X+ and Y+ per excursion from every start vertex are the rows of
    H = (I - d*Q)^-1 @ [1_X+, 1_Y+], and the score is H[u, own side] over
    H[u, X+] + H[u, Y+]. The columns of H are the two solves of
    :func:`walks._restart_visits`; the bound on each score is at
    :data:`walks.RESTART_TOL`.
    """
    return _own_share(p, *_restart_visits(g, *top_degree(g, p, k), damping)[:2])


def _own_share(p: Partition, hits_x, hits_y) -> np.ndarray:
    """:func:`rwc_user` from the visits to X+ and Y+ of :func:`walks._restart_visits`."""
    own = np.where(p.sides == 0, hits_x, hits_y)
    with np.errstate(invalid="ignore"):
        return own / (hits_x + hits_y)


def _strict_rank_fraction(values, rel_tol=1e-9) -> np.ndarray:
    """Fraction of vertices with a strictly smaller value.

    Values within solver precision of each other count as ties (the
    hitting times come out of BiCGSTAB at rtol 1e-13, whose noise on
    exact ties measured at most 6.5e-13 relative, far inside rel_tol);
    every finite value is strictly below inf.
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


def hitting_score_all(g, p: Partition, k=None) -> np.ndarray:
    """Signed hitting-time score per vertex, in (-1, 1).

    rho(u) = rank_X(u) - rank_Y(u), ranking each vertex by the fraction
    of vertices that reach X+ (resp. Y+) strictly faster. Vertices near
    X's authorities and far from Y's score close to -1, and the mirror
    ones close to +1.
    """
    l_x, l_y = (expected_hitting_times(g, authorities) for authorities in top_degree(g, p, k))
    return _strict_rank_fraction(l_x) - _strict_rank_fraction(l_y)


def user_score_table(g, p: Partition, k=None, *, damping=DAMPING):
    """``(rwc_user, rho)``: the restart-walk score and the hitting rank of
    every vertex, as two arrays in vertex order.

    A user whose restart walk reaches no authority (on a directed graph,
    an account that is only ever retweeted has no out-arc to leave by)
    gets ``rwc_user`` NaN; its ``rho`` comes from the undirected hitting
    times and is always defined.
    """
    rho = hitting_score_all(g, p, k)
    return rwc_user(g, p, k, damping=damping), rho


def write_user_scores(g, p: Partition, scores, path):
    """CSV table: user_id,side,rwc_user,rho (ids quoted where needed), one
    row per vertex of ``g`` from the ``(rwc_user, rho)`` arrays ``scores``."""
    rwc, rho = scores
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("user_id", "side", "rwc_user", "rho"))
        writer.writerows(zip(g.ids, map("XY".__getitem__, p.sides.tolist()),
                             map(repr, rwc.tolist()), map(repr, rho.tolist())))
