"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed and
size always produce byte-identical files. The program under test only
ever sees the files these functions write.
"""
from __future__ import annotations

import json

import numpy as np


def planted_edges(rng, n, intra_degree, cross_degree):
    """Two equal blocks with a fixed number of edges each.

    Sampling an exact edge count (instead of one Bernoulli draw per pair)
    keeps the graph size, and with it the work per run, the same for
    every seed. Vertices 0..n/2-1 form one block. Returns (ids, edges as
    index pairs).
    """
    half = n // 2
    m_intra = int(round(intra_degree * half / 2))
    m_cross = int(round(cross_degree * half))
    iu, ju = np.triu_indices(half, k=1)
    edges = []
    for offset in (0, half):
        pick = rng.choice(len(iu), size=m_intra, replace=False)
        edges.append(np.stack([iu[pick] + offset, ju[pick] + offset], axis=1))
    cross = rng.choice(half * half, size=m_cross, replace=False)
    edges.append(np.stack([cross // half, cross % half + half], axis=1))
    edges = np.concatenate(edges)
    # ids carry no hint of the block: vertex i gets a random label
    labels = rng.permutation(n)
    ids = [f"v{int(label):05d}" for label in labels]
    return ids, edges


def write_planted_edgelist(path, ids, edges):
    rows = sorted(tuple(sorted((ids[int(u)], ids[int(v)]))) for u, v in edges)
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in rows:
            fh.write(f"{a}\t{b}\t1\n")


# -- retweet records -----------------------------------------------------

SEED_TAG = "gridvote"
# camp-leaning topic tags, a few shared ones, and tags from other topics
CAMP_TAGS = (
    tuple(f"yes{i}" for i in range(9)),
    tuple(f"no{i}" for i in range(9)),
)
SHARED_TAGS = tuple(f"vote{i}" for i in range(7))
NOISE_TAGS = tuple(f"misc{i}" for i in range(30))
TOPIC_WORDS = tuple(f"tw{i}" for i in range(40))
NOISE_WORDS = tuple(f"nw{i}" for i in range(60))


def retweet_corpus(rng, n_users, n_records, *, own_camp=0.93, zipf=1.15,
                   silent_share=0.15, noise_share=0.35, offtopic_share=0.15,
                   duplicate_share=0.02):
    """JSON-lines-ready records for two camps retweeting popular accounts.

    Each camp ranks its members by a Zipf popularity; a retweet endorses
    a member of the author's own camp with probability ``own_camp``.
    ``silent_share`` of the users never post (accounts that are only
    retweeted). ``noise_share`` of the records are posts without an
    endorsement and ``offtopic_share`` are retweets under other topics'
    tags. Returns (records as dicts, camp label per user id).
    """
    ids = [f"user{i:05d}" for i in range(n_users)]
    camps = rng.permutation(np.arange(n_users) % 2)
    authors = np.flatnonzero(rng.random(n_users) >= silent_share)
    members = [np.flatnonzero(camps == c) for c in (0, 1)]

    author = authors[rng.integers(len(authors), size=n_records)]
    kind = rng.random(n_records)
    camp = camps[author]
    side = np.where(rng.random(n_records) < own_camp, camp, 1 - camp)
    endorsed = np.empty(n_records, dtype=np.int64)
    for s, m in enumerate(members):
        ranks = np.empty(len(m))
        ranks[rng.permutation(len(m))] = np.arange(1, len(m) + 1)
        weights = ranks ** -zipf
        mask = side == s
        endorsed[mask] = m[rng.choice(len(m), size=int(mask.sum()), p=weights / weights.sum())]
    topic_draw = rng.random(n_records)
    camp_tag = rng.integers(len(CAMP_TAGS[0]), size=n_records)
    shared_tag = rng.integers(len(SHARED_TAGS), size=n_records)
    noise_a = rng.integers(len(NOISE_TAGS), size=n_records)
    noise_b = (noise_a + 1 + rng.integers(len(NOISE_TAGS) - 1, size=n_records)) % len(NOISE_TAGS)
    extra_noise = rng.random(n_records) < 0.3
    shout = rng.random((n_records, 2)) < 0.1
    upper_author = rng.random(n_records) < 0.05
    duplicate = rng.random(n_records) < duplicate_share

    records = []
    for i in range(n_records):
        if kind[i] < noise_share:
            tags, target = [NOISE_TAGS[noise_a[i]]], None
            if extra_noise[i]:
                tags.append(NOISE_TAGS[noise_b[i]])
        else:
            target = int(endorsed[i])
            if target == author[i]:
                continue
            if kind[i] < noise_share + offtopic_share:
                tags = [NOISE_TAGS[noise_a[i]]]
            elif topic_draw[i] < 0.4:
                tags = [SEED_TAG]
            elif topic_draw[i] < 0.85:
                tags = [CAMP_TAGS[camp[i]][camp_tag[i]]]
            else:
                tags = [SHARED_TAGS[shared_tag[i]]]
            if extra_noise[i] and len(tags) == 1 and tags[0] not in NOISE_TAGS:
                tags.append(NOISE_TAGS[noise_b[i]])
        # exercise the readers' normalisation: case and a leading '#'
        tags = ["#" + t.upper() if shout[i, j] else t for j, t in enumerate(tags)]
        name = ids[author[i]]
        rec = {"author": name.upper() if upper_author[i] else name,
               "endorsed": None if target is None else ids[target],
               "hashtags": tags, "urls": [], "ts": i}
        records.append(rec)
        if duplicate[i]:
            records.append(dict(rec))
    return records, {uid: int(c) for uid, c in zip(ids, camps)}


def hashtag_profiles(rng):
    """Profiles for every tag the corpus uses.

    Topic tags share words and co-occurring tags with the seed, to a
    random degree, so expansion ranks them; the other topics' tags share
    nothing with it. There are more topic tags than the default expansion
    size, so expansion has to choose.
    """
    topic_tags = (SEED_TAG,) + CAMP_TAGS[0] + CAMP_TAGS[1] + SHARED_TAGS
    profiles = []
    for tag in topic_tags + NOISE_TAGS:
        topical = tag in topic_tags
        vocab = TOPIC_WORDS if topical else NOISE_WORDS
        pool = topic_tags if topical else NOISE_TAGS
        words = {str(w): int(rng.integers(1, 500))
                 for w in rng.choice(vocab, size=12, replace=False)}
        co = {str(t): int(rng.integers(1, 300))
              for t in rng.choice(pool, size=8, replace=False) if t != tag}
        profiles.append({"tag": tag, "df": int(rng.integers(20, 20000)),
                         "words": words, "tags": co})
    return profiles


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
