"""Hashtag similarity and topic expansion."""
import math

import pytest

import controversy as cv


def profile(tag, df=1, words=None, tags=None):
    return cv.HashtagProfile.make(tag, df, words=words, tags=tags)


class TestSimilarity:
    def test_identical_vectors_df_one(self):
        a = profile("a", 1, words={"x": 2}, tags={"y": 3})
        b = profile("b", 1, words={"x": 5}, tags={"y": 7})
        assert cv.hashtag_similarity(a, b, 0.3) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        a = profile("a", 1, words={"x": 1}, tags={"y": 1})
        b = profile("b", 1, words={"z": 1}, tags={"w": 1})
        assert cv.hashtag_similarity(a, b, 0.3) == 0.0

    def test_hand_evaluated_mixture(self):
        # word cosine 0.5 ((1,1,0) vs (0,1,1)), tag cosine 0.8 ((2,1) vs (1,2))
        a = profile("a", 1, words={"w1": 1, "w2": 1}, tags={"h1": 2, "h2": 1})
        b = profile("b", 10, words={"w2": 1, "w3": 1}, tags={"h1": 1, "h2": 2})
        expected = (0.3 * 0.5 + 0.7 * 0.8) / (1.0 + math.log(10))
        assert cv.hashtag_similarity(a, b, 0.3) == pytest.approx(expected)
        assert cv.hashtag_similarity(a, b, 0.3) == pytest.approx(0.2150, abs=5e-5)

    def test_zero_vector_cosine_is_zero(self):
        a = profile("a", 1, words={"x": 1})
        b = profile("b", 1, tags={"y": 1})
        assert cv.hashtag_similarity(a, b, 0.5) == 0.0

    def test_df_penalty_strictly_decreasing(self):
        a = profile("a", 1, tags={"y": 1})
        sims = [
            cv.hashtag_similarity(a, profile("b", df, tags={"y": 1}), 0.3)
            for df in (1, 2, 5, 50)
        ]
        assert all(x > y for x, y in zip(sims, sims[1:]))

    def test_range_zero_one(self):
        import random

        rng = random.Random(0)
        vocab = list("abcdef")
        for _ in range(200):
            mk = lambda: {rng.choice(vocab): rng.randint(1, 9) for _ in range(rng.randint(0, 4))}
            a = profile("s", 1, words=mk(), tags=mk())
            b = profile("t", rng.randint(1, 100), words=mk(), tags=mk())
            s = cv.hashtag_similarity(a, b, rng.random())
            assert 0.0 <= s <= 1.0

    @pytest.mark.parametrize("alpha", [2.0, -1.0, math.nan])
    def test_alpha_outside_zero_one_rejected(self, alpha):
        # unchecked, alpha 2.0 gives -1.0 here and alpha -1.0 gives 2.0
        a = profile("a", 1, words={"a": 1}, tags={"t": 1})
        b = profile("b", 1, words={"b": 1}, tags={"t": 1})
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\]$"):
            cv.hashtag_similarity(a, b, alpha)
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\]$"):
            cv.expand_topic("a", [a, b], alpha=alpha)

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError):
            profile("a", 0)


class TestExpansion:
    def test_top_k_selection(self):
        # cosines against the seed: a -> 1.0, b -> 0.707, c -> 0.316
        seed = profile("s", 1, tags={"t1": 1})
        cands = [
            profile("a", 1, tags={"t1": 3}),
            profile("b", 1, tags={"t1": 1, "t2": 1}),
            profile("c", 1, tags={"t1": 1, "t2": 3}),
        ]
        topic = cv.expand_topic("s", [seed] + cands, alpha=0.3, k=2)
        assert topic.members == ("s", "a", "b")

    def test_zero_similarity_excluded(self):
        seed = profile("s", 1, tags={"q": 1})
        cands = [profile("a", 1, tags={"zz": 1}), profile("b", 1, tags={"ww": 1})]
        topic = cv.expand_topic("s", [seed] + cands, k=5)
        assert topic.members == ("s",)

    def test_k_saturation(self):
        seed = profile("s", 1, tags={"a": 1, "b": 1})
        cands = [profile("a", 1, tags={"b": 1}), profile("b", 1, tags={"a": 1})]
        topic = cv.expand_topic("s", [seed] + cands, k=50)
        assert set(topic.members) == {"s", "a", "b"}

    def test_lexicographic_tie_break(self):
        seed = profile("s", 1, tags={"x": 1})
        cands = [profile(t, 1, tags={"x": 1}) for t in ("zq", "aq", "mq")]
        topic = cv.expand_topic("s", [seed] + cands, k=2)
        assert topic.members == ("s", "aq", "mq")

    def test_unknown_seed(self):
        with pytest.raises(cv.InputDataError, match="unknown seed"):
            cv.expand_topic("nope", [profile("a", 1)])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            cv.expand_topic("s", [profile("s", 1, tags={"a": 1}), profile("a", 1)], k=k)

    def test_output_size_bound_and_contains_seed(self):
        seed = profile("s", 1, tags={c: 1 for c in "abcdefgh"})
        cands = [profile(c, 1, tags={"s": 1, c * 2: 1}) for c in "abcdefgh"]
        for k in (1, 3, 8):
            topic = cv.expand_topic("s", [seed] + cands, k=k)
            assert topic.members[0] == "s"
            assert len(topic.members) <= k + 1


class TestProfiles:
    def test_build_from_records(self):
        records = [
            cv.InteractionRecord.make("u", hashtags=["a", "b"]),
            cv.InteractionRecord.make("v", hashtags=["a", "b"]),
            cv.InteractionRecord.make("w", hashtags=["a"]),
        ]
        profiles = {p.tag: p for p in cv.build_profiles(records)}
        assert profiles["a"].df == 3
        assert profiles["b"].df == 2
        assert profiles["a"].tags == {"b": 2}
        assert profiles["a"].words == {}

    def test_no_self_cooccurrence(self):
        p = profile("a", 3, tags={"a": 9, "b": 1})
        assert "a" not in p.tags

    def test_keys_that_normalize_alike_add_up(self):
        p = profile("x", 3, words={"Go": 1, "go": 2, "GO": 0}, tags={"#y": 2, "Y": 3, "#X": 4})
        assert p.words == {"go": 3}
        assert p.tags == {"y": 5}

    def test_round_trip(self, tmp_path):
        profiles = [
            profile("a", 2, words={"x": 1}, tags={"b": 3}),
            profile("b", 7, tags={"a": 3}),
        ]
        path = tmp_path / "profiles.jsonl"
        cv.write_profiles(profiles, path)
        again = cv.read_profiles(path)
        assert again == profiles

    def test_repeated_tag_is_a_bad_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"tag": "go", "df": 1}\n{"tag": "#GO", "df": 2}\n')
        with pytest.raises(cv.InputDataError,
                           match=r":2: bad profile \(repeated tag 'go'\)$"):
            cv.read_profiles(path)

    def test_bad_profile_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"tag": "a"}\n')
        with pytest.raises(cv.InputDataError, match=":1"):
            cv.read_profiles(path)
