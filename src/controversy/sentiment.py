"""Sentiment-variance controversy signal over precomputed per-post scores."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .graph import _number, read_rows

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
    """Read a ``post_id,score`` CSV, one record a line (optional header: first non-blank line)."""
    header = iter(["post_id,score"])  # what the first line may be, and no later one

    def parse(line):
        line = line.strip()
        if line.lower().replace(" ", "") == next(header, None):
            return None
        parts = next(csv.reader([line]))  # csv.Error: a NUL byte, before Python 3.11
        if len(parts) != 2:
            raise InputDataError("expected post_id,score")
        return SentimentRecord(post_id=parts[0].strip(), score=_number(parts[1], float, "score"))

    return [r for r in read_rows(path, parse) if r is not None]
