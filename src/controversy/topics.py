"""Seed-hashtag expansion via normalized co-occurrence similarity."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InputDataError
from .graph import Topic, _json_object, normalize_tag, read_rows

# the topic expansion's defaults: the word cosine's weight and the most tags added
EXPAND_ALPHA = 0.3
EXPAND_K = 20


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
        tags = _counts(tags, normalize_tag)
        tags.pop(tag, None)
        return cls(tag=tag, df=df, words=_counts(words, lambda w: str(w).lower()), tags=tags)


def _counts(counts, key):
    """The positive counts of ``counts`` keyed by ``key(name)``; names that
    give one key (case or '#' variants) add up."""
    out = {}
    for name, c in (counts or {}).items():
        if _integer(c, f"count of {name!r}") > 0:
            name = key(name)
            out[name] = out.get(name, 0) + c
    return out


def _integer(value, what):
    """``value`` if it is an integer (a bool is not); profile counts are
    never rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputDataError(f"{what} must be an integer, got {value!r}")
    return value


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


def hashtag_similarity(seed: HashtagProfile, cand: HashtagProfile, alpha=EXPAND_ALPHA) -> float:
    """Similarity of a candidate tag to the seed, penalized by popularity.

    Combines the word-vector and tag-vector cosines with weight ``alpha``
    in [0, 1] (else ValueError, NaN too) and divides by 1 + ln(df) of the
    candidate. Natural log, fixed for reproducibility. Result is in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if cand.df < 1:
        raise ValueError("candidate document frequency must be >= 1")
    mix = alpha * _cosine(seed.words, cand.words) + (1 - alpha) * _cosine(
        seed.tags, cand.tags
    )
    return mix / (1.0 + math.log(cand.df))


def expand_topic(seed_tag, profiles, *, alpha=EXPAND_ALPHA, k=EXPAND_K) -> Topic:
    """Topic made of the seed plus its k (>= 1, else ValueError) most
    similar hashtags by :func:`hashtag_similarity` at ``alpha``.

    Candidates with similarity 0 are excluded even if k is not filled;
    ties break lexicographically by tag.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seed_tag = normalize_tag(seed_tag)
    by_tag = {p.tag: p for p in profiles}
    if seed_tag not in by_tag:
        raise InputDataError(f"unknown seed {seed_tag!r}: no profile found")
    seed = by_tag[seed_tag]
    scored = []
    for tag, prof in by_tag.items():
        if tag == seed_tag:
            continue
        sim = hashtag_similarity(seed, prof, alpha)
        if sim > 0:
            scored.append((-sim, tag))
    scored.sort()
    return Topic.make(seed_tag, [tag for _, tag in scored[:k]])


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
    ``{"tag": str, "df": int, "words": {str: int}, "tags": {str: int}}``;
    a tag that an earlier line holds (up to case and '#') is a bad line."""
    seen = set()

    def parse(line):
        obj = _json_object(line)
        profile = HashtagProfile.make(obj["tag"], obj["df"], obj.get("words"), obj.get("tags"))
        if profile.tag in seen:
            raise InputDataError(f"repeated tag {profile.tag!r}")
        seen.add(profile.tag)
        return profile

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
