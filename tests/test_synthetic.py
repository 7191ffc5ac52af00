import pytest

from tempomine.extraction import extract_sentence
from tempomine.label_space import TemporalDimension, label_space
from tempomine.synthetic import (
    PLANTED_RULES,
    generate_corpus,
    planted_argument,
    planted_eval_instances,
    split_sentences,
)


def test_rule_inventory():
    assert len(PLANTED_RULES) >= 20
    verbs = [r.verb for r in PLANTED_RULES]
    assert len(set(verbs)) == len(verbs)  # verb-to-rule map must be a function
    for rule in PLANTED_RULES:
        assert rule.value in label_space(rule.dimension)
        # the planted check scores rank distance, so no categorical rules
        assert rule.dimension is not TemporalDimension.HIERARCHY


def test_rules_span_multiple_dimensions():
    dims = {r.dimension for r in PLANTED_RULES}
    assert len(dims) >= 5


def test_planted_argument_recovers_rule():
    # every rule's surface form must round-trip through extraction
    from tempomine.srl_ingest import parse_sentence

    for rule in PLANTED_RULES:
        arg = planted_argument(rule)
        tokens = ["they", rule.verb] + arg
        sentence = parse_sentence({
            "doc_id": "t", "sent_index": 0, "tokens": tokens,
            "frames": [{"verb_index": 1,
                        "args": [{"role": "ARGM-TMP",
                                  "span": [2, len(tokens)]}]}],
        })
        tuples = extract_sentence(sentence)
        assert len(tuples) == 1, rule
        assert tuples[0].dimension is rule.dimension, rule
        assert tuples[0].value == rule.value, rule


def test_generate_corpus_deterministic():
    a = generate_corpus(50, seed=2)
    b = generate_corpus(50, seed=2)
    assert a == b
    c = generate_corpus(50, seed=3)
    assert a != c


def test_generate_corpus_shape():
    sentences = generate_corpus(200, seed=0)
    assert len(sentences) == 200
    assert [s.doc_id for s in sentences[:2]] == ["synth-000000", "synth-000001"]
    verbs_seen = set()
    for s in sentences:
        assert len(s.frames) == 1
        verbs_seen.add(s.tokens[s.frames[0].verb_index])
    # with 200 draws every planted verb should appear
    assert verbs_seen == {r.verb for r in PLANTED_RULES}


def test_every_sentence_yields_exactly_one_planted_tuple():
    rules_by_verb = {r.verb: r for r in PLANTED_RULES}
    for s in generate_corpus(300, seed=1):
        tuples = extract_sentence(s)
        assert len(tuples) == 1
        verb = s.tokens[s.frames[0].verb_index]
        rule = rules_by_verb[verb]
        assert tuples[0].dimension is rule.dimension
        assert tuples[0].value == rule.value


def test_split_deterministic_and_disjoint():
    sentences = generate_corpus(500, seed=4)
    train_a, test_a = split_sentences(sentences, seed=4)
    train_b, test_b = split_sentences(sentences, seed=4)
    assert train_a == train_b and test_a == test_b
    assert len(train_a) + len(test_a) == 500
    ids = lambda xs: {(s.doc_id, s.sent_index) for s in xs}
    assert ids(train_a) & ids(test_a) == set()
    # roughly 90/10
    assert 400 <= len(train_a) <= 490
    assert split_sentences(sentences, seed=5)[0] != train_a


def test_split_fraction_parameter():
    sentences = generate_corpus(200, seed=0)
    train, test = split_sentences(sentences, seed=0, train_fraction=0.5)
    assert 70 <= len(train) <= 130


def test_planted_eval_instances_match_rules():
    sentences = generate_corpus(100, seed=6)
    instances = planted_eval_instances(sentences)
    assert len(instances) == 100
    rules_by_verb = {r.verb: r for r in PLANTED_RULES}
    for inst, s in zip(instances, sentences):
        rule = rules_by_verb[s.tokens[s.frames[0].verb_index]]
        assert inst.dimension is rule.dimension
        assert inst.value == rule.value
        # the temporal span is stripped from the event
        assert inst.event_tokens[inst.verb_index] == rule.verb
        arg_start, arg_end = s.frames[0].arguments[0][1]
        removed = s.tokens[arg_start:arg_end]
        joined = " ".join(inst.event_tokens)
        assert " ".join(removed) not in joined or len(removed) == 0
