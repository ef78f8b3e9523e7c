"""Tests for the TREC diversity testbed model and file formats."""

from __future__ import annotations

import pytest

from repro.corpus.trec import (
    DiversityQrels,
    DiversityTestbed,
    DiversityTopic,
    Subtopic,
    build_testbed,
    format_diversity_qrels,
    format_run,
    parse_diversity_qrels,
    parse_run,
)


class TestDataTypes:
    def test_subtopic_numbers_one_based(self):
        with pytest.raises(ValueError):
            Subtopic(number=0)

    def test_topic_subtopic_count(self):
        topic = DiversityTopic(1, "q", (Subtopic(1), Subtopic(2)))
        assert topic.num_subtopics == 2


class TestDiversityQrels:
    @pytest.fixture()
    def qrels(self):
        q = DiversityQrels()
        q.add(1, 1, "d1")
        q.add(1, 1, "d2")
        q.add(1, 2, "d2")
        q.add(2, 1, "d9")
        return q

    def test_is_relevant(self, qrels):
        assert qrels.is_relevant(1, 1, "d1")
        assert not qrels.is_relevant(1, 2, "d1")
        assert not qrels.is_relevant(3, 1, "d1")

    def test_is_relevant_any(self, qrels):
        assert qrels.is_relevant_any(1, "d2")
        assert not qrels.is_relevant_any(2, "d2")

    def test_relevant_docs(self, qrels):
        assert qrels.relevant_docs(1, 1) == {"d1", "d2"}
        assert qrels.relevant_docs(9, 9) == frozenset()

    def test_relevant_subtopics_vector(self, qrels):
        assert qrels.relevant_subtopics(1, "d2") == {1, 2}
        assert qrels.relevant_subtopics(1, "zz") == frozenset()

    def test_subtopic_numbers_sorted(self, qrels):
        assert qrels.subtopic_numbers(1) == [1, 2]

    def test_topic_ids(self, qrels):
        assert qrels.topic_ids == [1, 2]

    def test_num_judgements(self, qrels):
        assert qrels.num_judgements() == 4


class TestTestbed:
    def test_build_from_corpus(self, small_corpus, small_testbed):
        assert len(small_testbed.topics) == len(small_corpus.topics)
        for topic, synth in zip(small_testbed.topics, small_corpus.topics):
            assert topic.query == synth.query
            assert topic.num_subtopics == len(synth.aspects)

    def test_qrels_align_with_labels(self, small_corpus, small_testbed):
        for doc_id, (topic_id, aspect) in small_corpus.labels.items():
            assert small_testbed.qrels.is_relevant(topic_id, aspect + 1, doc_id)

    def test_probabilities_replay_ground_truth(self, small_corpus, small_testbed):
        topic = small_corpus.topics[0]
        for i, aspect in enumerate(topic.aspects):
            assert small_testbed.probability(
                topic.topic_id, i + 1
            ) == pytest.approx(aspect.popularity)

    def test_uniform_probability_fallback(self):
        testbed = DiversityTestbed(
            topics=[DiversityTopic(1, "q", (Subtopic(1), Subtopic(2)))],
            qrels=DiversityQrels(),
        )
        assert testbed.probability(1, 1) == pytest.approx(0.5)

    def test_topic_lookup(self, small_testbed):
        first = small_testbed.topics[0]
        assert small_testbed.topic(first.topic_id) is first
        with pytest.raises(KeyError):
            small_testbed.topic(99999)


class TestQrelsFormat:
    def test_round_trip(self):
        qrels = DiversityQrels()
        qrels.add(1, 1, "doc-a")
        qrels.add(1, 2, "doc-b")
        text = format_diversity_qrels(qrels)
        parsed = parse_diversity_qrels(text.splitlines())
        assert parsed.relevant_docs(1, 1) == {"doc-a"}
        assert parsed.relevant_docs(1, 2) == {"doc-b"}

    def test_zero_relevance_ignored(self):
        parsed = parse_diversity_qrels(["1 1 doc-a 0", "1 1 doc-b 1"])
        assert parsed.relevant_docs(1, 1) == {"doc-b"}

    def test_comments_and_blank_lines_skipped(self):
        parsed = parse_diversity_qrels(["# header", "", "1 1 d 1"])
        assert parsed.num_judgements() == 1

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="expected 4 fields"):
            parse_diversity_qrels(["1 1 d"])

    def test_malformed_line_reports_its_line_number(self):
        with pytest.raises(ValueError, match="qrels line 3"):
            parse_diversity_qrels(["1 1 a 1", "", "1 1 b 1 extra"])

    def test_format_is_sorted_and_marks_every_line_relevant(self):
        qrels = DiversityQrels()
        qrels.add(2, 1, "z")
        qrels.add(1, 2, "b")
        qrels.add(1, 2, "a")
        qrels.add(1, 1, "c")
        assert format_diversity_qrels(qrels).splitlines() == [
            "1 1 c 1", "1 2 a 1", "1 2 b 1", "2 1 z 1",
        ]

    def test_graded_relevance_counts_as_relevant(self):
        parsed = parse_diversity_qrels(["1 1 doc-a 2", "1 1 doc-b -1"])
        assert parsed.relevant_docs(1, 1) == {"doc-a"}

    def test_empty_qrels_format_empty(self):
        assert format_diversity_qrels(DiversityQrels()) == ""
        assert parse_diversity_qrels([]).num_judgements() == 0

    def test_testbed_qrels_round_trip(self, small_testbed):
        qrels = small_testbed.qrels
        parsed = parse_diversity_qrels(format_diversity_qrels(qrels).splitlines())
        assert parsed.topic_ids == qrels.topic_ids
        assert parsed.num_judgements() == qrels.num_judgements()
        for topic_id in qrels.topic_ids:
            for subtopic in qrels.subtopic_numbers(topic_id):
                assert parsed.relevant_docs(topic_id, subtopic) == (
                    qrels.relevant_docs(topic_id, subtopic)
                )


class TestRunFormat:
    def test_round_trip(self):
        rankings = {1: [("d1", 3.5), ("d2", 2.0)], 2: [("d9", 1.0)]}
        text = format_run(rankings, tag="test")
        parsed = parse_run(text.splitlines())
        assert parsed[1] == [("d1", 3.5), ("d2", 2.0)]
        assert parsed[2] == [("d9", 1.0)]

    def test_rank_column_respected_on_parse(self):
        lines = ["1 Q0 low 2 1.0 t", "1 Q0 high 1 0.5 t"]
        parsed = parse_run(lines)
        assert [d for d, _ in parsed[1]] == ["high", "low"]

    def test_malformed_run_line(self):
        with pytest.raises(ValueError, match="expected 6 fields"):
            parse_run(["1 Q0 d 1 2.0"])

    def test_empty_run(self):
        assert format_run({}) == ""
        assert parse_run([]) == {}

    def test_format_ranks_from_one_in_list_order_and_sorts_topics(self):
        text = format_run({7: [("b", 2.0), ("a", 1.0)], 3: [("c", 0.25)]}, tag="x")
        assert text.splitlines() == [
            "3 Q0 c 1 0.250000 x",
            "7 Q0 b 1 2.000000 x",
            "7 Q0 a 2 1.000000 x",
        ]

    def test_comments_and_blank_lines_skipped(self):
        parsed = parse_run(["# run", "", "1 Q0 d 1 2.0 t"])
        assert parsed == {1: [("d", 2.0)]}

    def test_malformed_run_line_reports_its_line_number(self):
        with pytest.raises(ValueError, match="run line 2"):
            parse_run(["1 Q0 d 1 2.0 t", "1 Q0 e 2"])
