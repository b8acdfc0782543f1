"""Seed-hashtag expansion via normalized co-occurrence similarity."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InputDataError
from .graph import Topic, _json_object, normalize_tag, read_rows


@dataclass(frozen=True)
class HashtagProfile:
    """Co-occurrence statistics for one hashtag.

    ``words`` and ``tags`` are sparse count vectors of co-occurring words
    and hashtags; ``df`` is the tag's document frequency in a background
    sample of posts.
    """

    tag: str
    df: int
    words: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    @classmethod
    def make(cls, tag, df, words=None, tags=None):
        if not isinstance(tag, str):
            raise InputDataError(f"tag must be a string, got {tag!r}")
        for name, counts in (("words", words), ("tags", tags)):
            if counts is not None and not isinstance(counts, dict):
                raise InputDataError(f"{name} must be an object of counts, got {counts!r}")
        tag = normalize_tag(tag)
        df = _integer(df, "df")
        if df < 1:
            raise ValueError(f"df must be >= 1, got {df} for {tag!r}")
        words = {
            str(w).lower(): c
            for w, c in (words or {}).items()
            if _integer(c, f"count of {w!r}") > 0
        }
        tags = {
            normalize_tag(t): c
            for t, c in (tags or {}).items()
            if _integer(c, f"count of {t!r}") > 0 and normalize_tag(t) != tag
        }
        return cls(tag=tag, df=df, words=words, tags=tags)


def _integer(value, what):
    """``value`` if it is an integer (a bool is not); profile counts are
    never rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputDataError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ExpansionConfig:
    alpha: float = 0.3
    k: int = 20

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _cosine(a: dict, b: dict) -> float:
    """Cosine similarity of sparse nonnegative count vectors; 0 for a zero vector."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(c * b[key] for key, c in a.items() if key in b)
    if dot == 0:
        return 0.0
    na = math.sqrt(sum(c * c for c in a.values()))
    nb = math.sqrt(sum(c * c for c in b.values()))
    return dot / (na * nb)


def hashtag_similarity(seed: HashtagProfile, cand: HashtagProfile, alpha=0.3) -> float:
    """Similarity of a candidate tag to the seed, penalized by popularity.

    Combines the word-vector and tag-vector cosines with weight ``alpha``
    and divides by 1 + ln(df) of the candidate. Natural log, fixed for
    reproducibility. Result is in [0, 1].
    """
    if cand.df < 1:
        raise ValueError("candidate document frequency must be >= 1")
    mix = alpha * _cosine(seed.words, cand.words) + (1 - alpha) * _cosine(
        seed.tags, cand.tags
    )
    return mix / (1.0 + math.log(cand.df))


def expand_topic(seed_tag, profiles, cfg: ExpansionConfig | None = None) -> Topic:
    """Topic made of the seed plus its k most similar hashtags.

    Candidates with similarity 0 are excluded even if k is not filled;
    ties break lexicographically by tag.
    """
    cfg = cfg or ExpansionConfig()
    seed_tag = normalize_tag(seed_tag)
    by_tag = {p.tag: p for p in profiles}
    if seed_tag not in by_tag:
        raise InputDataError(f"unknown seed {seed_tag!r}: no profile found")
    seed = by_tag[seed_tag]
    scored = []
    for tag, prof in by_tag.items():
        if tag == seed_tag:
            continue
        sim = hashtag_similarity(seed, prof, cfg.alpha)
        if sim > 0:
            scored.append((-sim, tag))
    scored.sort()
    return Topic.make(seed_tag, [tag for _, tag in scored[: cfg.k]])


def build_profiles(records):
    """Derive hashtag profiles from interaction records.

    Records carry no free text, so the word vectors stay empty; tag
    co-occurrence and document frequency are counted per record. Supply a
    profiles file instead when word-level statistics are available.
    """
    tag_df: dict[str, int] = {}
    cooc: dict[str, dict] = {}
    for rec in records:
        tags = sorted(rec.hashtags)
        for t in tags:
            tag_df[t] = tag_df.get(t, 0) + 1
            vec = cooc.setdefault(t, {})
            for other in tags:
                if other != t:
                    vec[other] = vec.get(other, 0) + 1
    return [
        HashtagProfile.make(tag=t, df=tag_df[t], tags=cooc.get(t, {}))
        for t in sorted(tag_df)
    ]


def read_profiles(path):
    """Read profiles from JSON lines:
    ``{"tag": str, "df": int, "words": {str: int}, "tags": {str: int}}``."""
    def parse(line):
        obj = _json_object(line)
        return HashtagProfile.make(obj["tag"], obj["df"], obj.get("words"), obj.get("tags"))

    return list(read_rows(path, parse, what="bad profile"))


def write_profiles(profiles, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            fh.write(
                json.dumps(
                    {"tag": p.tag, "df": p.df, "words": p.words, "tags": p.tags},
                    sort_keys=True,
                )
                + "\n"
            )
