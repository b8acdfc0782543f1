"""Sentiment-variance controversy signal over precomputed per-post scores."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .graph import read_lines

SCORE_MIN, SCORE_MAX = -4.0, 4.0
CONTROVERSIAL_MIN_VARIANCE = 2.0
NON_CONTROVERSIAL_MAX_VARIANCE = 1.5


@dataclass(frozen=True)
class SentimentRecord:
    post_id: str
    score: float

    def __post_init__(self):
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise InputDataError(
                f"sentiment score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )


def sentiment_variance(records) -> float:
    """Population variance (divide by N) of the per-post scores."""
    scores = np.array([r.score for r in records], dtype=float)
    if len(scores) < 2:
        raise InputDataError("need at least 2 sentiment records")
    return float(scores.var(ddof=0))


def classify_by_variance(variance) -> str:
    """Label a topic by its sentiment variance: >= 2 controversial,
    <= 1.5 non-controversial, the gap indeterminate."""
    if variance < 0:
        raise ValueError("variance cannot be negative")
    if variance >= CONTROVERSIAL_MIN_VARIANCE:
        return "controversial"
    if variance <= NON_CONTROVERSIAL_MAX_VARIANCE:
        return "non-controversial"
    return "indeterminate"


def read_sentiment(path):
    """Read a ``post_id,score`` CSV (header row optional)."""
    records = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if lineno == 1 and line.lower().replace(" ", "") == "post_id,score":
            continue
        parts = line.split(",")
        try:
            if len(parts) != 2:
                raise InputDataError("expected post_id,score")
            records.append(SentimentRecord(post_id=parts[0].strip(), score=float(parts[1])))
        except InputDataError as exc:
            raise InputDataError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise InputDataError(f"{path}:{lineno}: bad score {parts[1]!r}") from None
    return records
