"""Per-user controversy scores from restart walks and hitting times."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStructureError
from .partition import Partition
from .walks import (
    HighDegreeSets,
    RestartWalkConfig,
    expected_hitting_times,
    stationary_rwr,
)


@dataclass(frozen=True)
class UserScore:
    user_id: str
    side: str
    rwc_user: float
    rho: float


def rwc_user(g, p: Partition, hds: HighDegreeSets, u, cfg: RestartWalkConfig | None = None) -> float:
    """Probability mass the user's restart walk puts on their own side's
    authorities, normalized over both sides.

    The walk starts and restarts at ``u``; top-degree vertices of both
    sides are dangling and teleport back to ``u`` with probability 1.
    Returns a value in [0, 1].
    """
    u = int(u)
    pi = stationary_rwr(g, [u], hds.all, cfg)
    m_x = pi.mass(hds.x_plus)
    m_y = pi.mass(hds.y_plus)
    if m_x + m_y == 0.0:
        raise DegenerateStructureError(
            f"no high-degree vertex reachable from vertex {u}"
        )
    own = m_x if p.side_of(u) == "X" else m_y
    return float(own / (m_x + m_y))


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
    """UserScore rows for every vertex (restart-walk score + hitting rank)."""
    rho = hitting_score_all(g, p, hds)
    rows = []
    for v in range(g.n_vertices):
        rows.append(
            UserScore(
                user_id=g.ids[v],
                side=p.side_of(v),
                rwc_user=rwc_user(g, p, hds, v, cfg),
                rho=float(rho[v]),
            )
        )
    return rows


def write_user_scores(rows, path):
    """CSV table: user_id,side,rwc_user,rho (ids quoted where needed)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("user_id", "side", "rwc_user", "rho"))
        writer.writerows((r.user_id, r.side, repr(r.rwc_user), repr(r.rho)) for r in rows)
