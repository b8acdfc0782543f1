"""Sentiment-variance signal."""
import pytest

import controversy as cv


def recs(*scores):
    return [cv.SentimentRecord(post_id=str(i), score=s) for i, s in enumerate(scores)]


class TestVariance:
    def test_constant_scores(self):
        assert cv.sentiment_variance(recs(1.5, 1.5, 1.5)) == 0.0

    def test_two_point_extremes(self):
        assert cv.sentiment_variance(recs(-4, 4)) == 16.0

    def test_hand_computed(self):
        assert cv.sentiment_variance(recs(-2, 0, 2)) == pytest.approx(8 / 3)

    def test_population_not_sample(self):
        # ddof=0: variance of {0, 2} is 1, not 2
        assert cv.sentiment_variance(recs(0, 2)) == 1.0

    def test_translation_invariance_and_scaling(self):
        base = (-2.0, 0.5, 1.5, -1.0)
        v = cv.sentiment_variance(recs(*base))
        shifted = cv.sentiment_variance(recs(*(s + 1.0 for s in base)))
        doubled = cv.sentiment_variance(recs(*(2 * s for s in base)))
        assert shifted == pytest.approx(v)
        assert doubled == pytest.approx(4 * v)

    def test_too_few_records(self):
        with pytest.raises(cv.InputDataError):
            cv.sentiment_variance(recs(1.0))

    def test_score_range_enforced(self):
        with pytest.raises(cv.InputDataError):
            cv.SentimentRecord(post_id="x", score=4.5)


class TestClassification:
    @pytest.mark.parametrize(
        "variance,label",
        [
            (2.4, "controversial"),
            (2.0, "controversial"),
            (1.7, "indeterminate"),
            (1.5, "non-controversial"),
            (1.0, "non-controversial"),
            (0.0, "non-controversial"),
        ],
    )
    def test_threshold_labels(self, variance, label):
        assert cv.classify_by_variance(variance) == label

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cv.classify_by_variance(-0.1)

    def test_monotone_labels(self):
        order = {"non-controversial": 0, "indeterminate": 1, "controversial": 2}
        labels = [order[cv.classify_by_variance(v / 10)] for v in range(0, 41)]
        assert labels == sorted(labels)


class TestReader:
    def test_reads_with_and_without_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("post_id,score\np1,1.5\np2,-2\n")
        records = cv.read_sentiment(f)
        assert [r.score for r in records] == [1.5, -2.0]
        f2 = tmp_path / "s2.csv"
        f2.write_text("p1,0.5\n")
        assert cv.read_sentiment(f2)[0].post_id == "p1"

    def test_quoted_fields(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text('post_id,score\n"a,b",1\np2,-1\n"p""3",2\n')
        assert [(r.post_id, r.score) for r in cv.read_sentiment(f)] == [
            ("a,b", 1.0), ("p2", -1.0), ('p"3', 2.0)]
        # a field is one line's: an open quote does not join the next line
        f.write_text('"a\nb",1\n')
        with pytest.raises(cv.InputDataError, match="s.csv:1: expected post_id,score"):
            cv.read_sentiment(f)

    def test_header_after_blank_lines(self, tmp_path):
        f = tmp_path / "s1.csv"
        f.write_text("\npost_id,score\np1,1\np2,-1\n")
        assert [(r.post_id, r.score) for r in cv.read_sentiment(f)] == [("p1", 1.0), ("p2", -1.0)]
        # only the first non-blank line may be the header
        f.write_text("p1,1\npost_id,score\n")
        with pytest.raises(cv.InputDataError, match="s1.csv:2: bad score 'score'"):
            cv.read_sentiment(f)

    def test_bad_score(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("p1,huge\n")
        with pytest.raises(cv.InputDataError, match="bad score"):
            cv.read_sentiment(f)

    def test_out_of_range_score(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("p1,9.0\n")
        with pytest.raises(cv.InputDataError):
            cv.read_sentiment(f)
