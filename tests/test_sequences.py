import json
import math

import numpy as np
import pytest

from tempomine.extraction import TemporalTuple
from tempomine.label_space import TemporalDimension, label_space
from tempomine.seeding import stream_rng
from tempomine.sequences import (
    MASK_ID,
    MAX_SEQUENCE_LENGTH,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    VERB_MARKER,
    MaskingConfig,
    MaskTarget,
    TrainingRecord,
    Vocabulary,
    apply_masking,
    build_sequence,
    build_vocabulary,
    dim_token,
    read_records_jsonl,
    record_from_json_dict,
    val_targets,
    val_token,
    write_records_jsonl,
)
from tempomine.srl_ingest import SchemaError, text_lines
from tempomine.targets import soft_target


@pytest.fixture()
def vocab() -> Vocabulary:
    return build_vocabulary([
        ("jack", "rested", "jack"),
        ("spoke", "the", "speech", "the"),
    ])


# ---------------------------------------------------------------- vocabulary

def test_structural_ids_fixed(vocab):
    assert vocab.id_to_token[:4] == ("[PAD]", "[UNK]", "[MASK]", "[SEP]")
    assert (PAD_ID, UNK_ID, MASK_ID, SEP_ID) == (0, 1, 2, 3)


def test_words_sorted_by_count_then_token(vocab):
    words = vocab.id_to_token[vocab.word_id_start:vocab.word_id_end]
    # jack and the appear twice; rested, speech, spoke once each
    assert words == ("jack", "the", "rested", "speech", "spoke")


def test_reserved_block_layout(vocab):
    i = vocab.word_id_end
    assert vocab.id_to_token[i] == VERB_MARKER
    dims = vocab.id_to_token[i + 1:i + 9]
    assert dims == tuple(dim_token(d) for d in TemporalDimension)
    vals = vocab.id_to_token[i + 9:]
    expected_vals = []
    for d in TemporalDimension:
        expected_vals.extend(val_token(d, lab) for lab in label_space(d).labels)
    assert vals == tuple(expected_vals)
    assert len(vals) == 62


def test_vocab_size(vocab):
    # 4 structural + 5 words + 1 marker + 8 dims + 62 values
    assert len(vocab) == 4 + 5 + 71


def test_val_block_contiguous(vocab):
    for d in TemporalDimension:
        start, labels = vocab.val_block(d)
        for i, lab in enumerate(labels):
            assert vocab.val_id(d, lab) == start + i


@pytest.mark.parametrize("sigmas", [(4.0, 0.5), (1.0, 2.0)])
def test_val_targets_table(vocab, sigmas):
    # Row k is the target of the vocabulary's k-th [Val] id: soft_target on
    # its dimension's block, zero elsewhere; hierarchy rows are one-hot.
    soft, hard = val_targets("soft", *sigmas), val_targets("hard", *sigmas)
    assert soft.shape == hard.shape == (62, 62)
    assert np.array_equal(hard, np.eye(62))
    np.testing.assert_allclose(soft.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    base = len(vocab) - 62
    for d in TemporalDimension:
        start, labels = vocab.val_block(d)
        for label in labels:
            k = vocab.val_id(d, label) - base
            expected = np.zeros(62)
            expected[start - base:start - base + len(labels)] = soft_target(d, label, *sigmas)
            assert np.array_equal(soft[k], expected)
            if d is TemporalDimension.HIERARCHY:
                assert np.array_equal(soft[k], np.eye(62)[k])


def test_encode_word_unknown_is_unk(vocab):
    assert vocab.encode_word("zebra") == UNK_ID


def test_encode_word_never_returns_special_ids(vocab):
    # A corpus token that happens to spell a structural or reserved
    # surface must not alias the real control token.
    assert vocab.encode_word("[SEP]") == UNK_ID
    assert vocab.encode_word("[MASK]") == UNK_ID
    assert vocab.encode_word(VERB_MARKER) == UNK_ID
    assert vocab.encode_word(val_token(TemporalDimension.DURATION, "hour")) == UNK_ID


def test_bracketed_surfaces_excluded_from_words():
    v = build_vocabulary([("[SEP]", "plain", "[Vrb]", "[weird]")])
    words = v.id_to_token[v.word_id_start:v.word_id_end]
    assert words == ("plain",)


def test_min_count_cutoff():
    v = build_vocabulary([("a", "a", "b")], min_count=2)
    words = v.id_to_token[v.word_id_start:v.word_id_end]
    assert words == ("a",)
    assert v.encode_word("b") == UNK_ID


def test_tsv_round_trip(vocab):
    lines = vocab.to_tsv_lines()
    back = Vocabulary.from_tsv_lines(lines)
    assert back == vocab


def test_tsv_round_trip_awkward_words(tmp_path):
    # '#' opens a word as well as a header line; line breaks cannot sit in a row.
    v = build_vocabulary([("#team", "a\rb", "a\nb", "x\ty", "")])
    words = v.id_to_token[v.word_id_start:v.word_id_end]
    assert words == ("", "#team", "x\ty")
    assert v.encode_word("a\rb") == v.encode_word("a\nb") == UNK_ID
    assert Vocabulary.from_tsv_lines(v.to_tsv_lines()) == v
    path = tmp_path / "v.tsv"
    path.write_text("# tempomine build-dataset\n# seed=1\n"
                    + "".join(f"{line}\n" for line in v.to_tsv_lines()), encoding="utf-8")
    assert Vocabulary.from_tsv_lines(text_lines(str(path)), str(path)) == v


def test_tsv_rejects_sparse_ids():
    with pytest.raises(ValueError, match="dense"):
        Vocabulary.from_tsv_lines(["[PAD]\t0", "[UNK]\t2"])


def test_tsv_bad_row_names_source_and_line():
    with pytest.raises(SchemaError, match=r"v\.tsv:3: vocabulary ids must be dense, "
                                          r"expected 1, got '2'"):
        Vocabulary.from_tsv_lines(["# header", "[PAD]\t0", "[UNK]\t2"], "v.tsv")


# ---------------------------------------------------------------- sequences

def _vocab_for(*token_seqs):
    return build_vocabulary(token_seqs)


def test_build_sequence_duration_template():
    v = _vocab_for(("Jack", "rested"))
    tup = TemporalTuple(("Jack", "rested"), 1, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, v)
    expected = [
        v.encode_word("Jack"),
        v.verb_marker_id,
        v.encode_word("rested"),
        SEP_ID,
        v.verb_marker_id,
        v.dim_id(TemporalDimension.DURATION),
        v.val_id(TemporalDimension.DURATION, "hour"),
    ]
    assert list(built.ids) == expected
    assert built.dim_position == 5
    assert built.val_position == 6
    # maskable event slots are the word tokens, marker excluded
    assert built.event_positions == (0, 2)
    assert built.dimension is TemporalDimension.DURATION


def test_build_sequence_hierarchy_tail():
    v = _vocab_for(("Jack", "rested", "the", "speech"))
    tup = TemporalTuple(("Jack", "rested"), 1, TemporalDimension.HIERARCHY,
                        "before", arg_tmp_event_tokens=("the", "speech"))
    built = build_sequence(tup, v)
    expected = [
        v.encode_word("Jack"),
        v.verb_marker_id,
        v.encode_word("rested"),
        SEP_ID,
        v.verb_marker_id,
        v.dim_id(TemporalDimension.HIERARCHY),
        v.val_id(TemporalDimension.HIERARCHY, "before"),
        v.encode_word("the"),
        v.encode_word("speech"),
    ]
    assert list(built.ids) == expected
    assert built.val_position == 6


def test_build_sequence_contexts_not_maskable():
    v = _vocab_for(("He", "was", "tired", "Jack", "rested", "Then", "he", "left"))
    tup = TemporalTuple(("Jack", "rested"), 1, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, v, left_context=("He", "was", "tired"),
                           right_context=("Then", "he", "left"))
    assert built.ids[0] == v.encode_word("He")
    # event words sit after the 3 left-context tokens
    assert built.event_positions == (3, 5)
    assert built.ids[4] == v.verb_marker_id
    assert len(built.ids) == 3 + 3 + 3 + 4


def test_truncation_drops_right_context_then_left():
    v = _vocab_for(tuple("abcdefgh") + ("v",))
    tup = TemporalTuple(("v",), 0, TemporalDimension.DURATION, "hour")
    # template needs marker+verb+4 tail slots = 6; with max_length 8
    # only two context tokens survive: the left pair closest to the event
    built = build_sequence(tup, v, left_context=("a", "b"),
                           right_context=("c", "d"), max_length=8)
    assert len(built.ids) == 8
    decoded = [v.id_to_token[i] for i in built.ids]
    assert decoded[:2] == ["a", "b"]
    assert "c" not in decoded and "d" not in decoded

    # one slot tighter: leading left token goes next
    built7 = build_sequence(tup, v, left_context=("a", "b"),
                            right_context=("c", "d"), max_length=7)
    decoded7 = [v.id_to_token[i] for i in built7.ids]
    assert decoded7[0] == "b"
    assert "a" not in decoded7


def test_truncation_right_context_far_end_first():
    v = _vocab_for(tuple("abcd") + ("v",))
    tup = TemporalTuple(("v",), 0, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, v, right_context=("a", "b", "c", "d"),
                           max_length=9)
    decoded = [v.id_to_token[i] for i in built.ids]
    # 6 template slots + 3 right-context slots: d (farthest) dropped
    assert "d" not in decoded
    assert decoded[2:5] == ["a", "b", "c"]


def test_event_truncation_farthest_from_verb():
    v = _vocab_for(tuple("pqrstuv"))
    tup = TemporalTuple(tuple("pqrstuv"), 3, TemporalDimension.DURATION, "hour")
    # budget: max_length 10 - tail 4 - marker 1 = 5 event tokens
    built = build_sequence(tup, v, max_length=10)
    decoded = [v.id_to_token[i] for i in built.ids]
    # p (dist 3, tie with v: right dropped first) and v both go
    assert "v" not in decoded
    assert "p" not in decoded
    assert decoded[:6] == ["q", "r", VERB_MARKER, "s", "t", "u"]
    assert len(built.event_positions) == 5


def test_event_truncation_tie_drops_right():
    v = _vocab_for(tuple("abcde"))
    tup = TemporalTuple(tuple("abcde"), 2, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, v, max_length=9)  # budget 4 event tokens
    decoded = [v.id_to_token[i] for i in built.ids]
    # a and e are both distance 2 from the verb; e (right) goes first
    assert "e" not in decoded
    assert "a" in decoded


def test_verb_survives_extreme_truncation():
    v = _vocab_for(tuple("abcdefg"))
    tup = TemporalTuple(tuple("abcdefg"), 6, TemporalDimension.DURATION, "hour")
    built = build_sequence(tup, v, max_length=6)  # event budget 1
    decoded = [v.id_to_token[i] for i in built.ids]
    assert decoded == [VERB_MARKER, "g", "[SEP]", VERB_MARKER,
                       dim_token(TemporalDimension.DURATION),
                       val_token(TemporalDimension.DURATION, "hour")]
    assert built.event_positions == (1,)


def test_embedded_tail_trimmed_as_last_resort():
    v = _vocab_for(tuple("abcdefg") + ("v",))
    tail = tuple("abcdefg")
    tup = TemporalTuple(("v",), 0, TemporalDimension.HIERARCHY, "before",
                        arg_tmp_event_tokens=tail)
    # template wants 1 + 1 + 4 + 7 = 13 slots; cap at 9 forces the tail
    # to shrink from its right edge
    built = build_sequence(tup, v, max_length=9)
    decoded = [v.id_to_token[i] for i in built.ids]
    assert len(built.ids) <= 9
    kept_tail = decoded[6:]
    assert kept_tail == list("abc")


def test_build_sequence_never_exceeds_max(vocab):
    rng = np.random.default_rng(0)
    words = tuple(vocab.id_to_token[vocab.word_id_start:vocab.word_id_end])
    for _ in range(50):
        n = int(rng.integers(1, 40))
        event = tuple(str(rng.choice(words)) for _ in range(n))
        verb = int(rng.integers(0, n))
        left = tuple(str(rng.choice(words)) for _ in range(int(rng.integers(0, 30))))
        right = tuple(str(rng.choice(words)) for _ in range(int(rng.integers(0, 30))))
        built = build_sequence(
            TemporalTuple(event, verb, TemporalDimension.DURATION, "day"),
            vocab, left_context=left, right_context=right, max_length=32)
        assert len(built.ids) <= 32
        marker_positions = [i for i, t in enumerate(built.ids)
                            if t == vocab.verb_marker_id]
        assert len(marker_positions) == 2  # one in the event, one after [SEP]


def test_build_sequence_validation():
    v = _vocab_for(("a",))
    with pytest.raises(ValueError):
        build_sequence(TemporalTuple((), 0, TemporalDimension.DURATION, "hour"), v)
    with pytest.raises(ValueError):
        build_sequence(TemporalTuple(("a",), 3, TemporalDimension.DURATION, "hour"), v)
    with pytest.raises(ValueError):
        build_sequence(TemporalTuple(("a",), 0, TemporalDimension.DURATION, "eon"), v)


def test_default_max_length_constant():
    assert MAX_SEQUENCE_LENGTH == 128


# ------------------------------------------------------------------ masking

def _built(vocab, dim=TemporalDimension.DURATION, value="hour", tail=()):
    tup = TemporalTuple(("jack", "rested"), 1, dim, value,
                        arg_tmp_event_tokens=tail)
    return build_sequence(tup, vocab)


def test_masking_config_validation():
    with pytest.raises(ValueError):
        MaskingConfig(p_mask=1.5)
    with pytest.raises(ValueError):
        MaskingConfig(p_event=-0.1)
    cfg = MaskingConfig()
    assert (cfg.p_mask, cfg.p_dim, cfg.p_event) == (0.6, 0.1, 0.15)


def test_val_always_selected_at_p_one(vocab):
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=1.0, p_dim=0.0, p_event=1.0)
    for i in range(200):
        rec = apply_masking(built, cfg, vocab, stream_rng(0, "masking", i))
        assert tuple(t.position for t in rec.targets) == (built.val_position,)
        # event draws are gated off because a slot fired
        assert all(p not in built.event_positions for p in tuple(t.position for t in rec.targets))


def test_exactly_one_val_target_with_soft(vocab):
    # The [Val] target holds the gold label's id, which names the row a
    # soft-target run builds; records store no distribution.
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=1.0, p_dim=1.0)
    rec = apply_masking(built, cfg, vocab, stream_rng(0, "masking", 0))
    assert tuple(t.position for t in rec.targets) == (built.dim_position, built.val_position)
    val_targets = [t for t in rec.targets if t.position == rec.val_position]
    assert len(val_targets) == 1
    assert val_targets[0].token_id == vocab.val_id(TemporalDimension.DURATION, "hour")
    assert rec.val_token_id == val_targets[0].token_id
    dim_target = next(t for t in rec.targets if t.position == built.dim_position)
    assert dim_target.token_id == vocab.dim_id(TemporalDimension.DURATION)


def test_event_masking_mutually_exclusive_with_slots(vocab):
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=0.0, p_dim=0.0, p_event=1.0)
    rec = apply_masking(built, cfg, vocab, stream_rng(0, "masking", 0))
    assert tuple(t.position for t in rec.targets) == built.event_positions
    assert rec.val_token_id == built.ids[built.val_position]


def test_no_selection_possible(vocab):
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=0.0, p_dim=0.0, p_event=0.0)
    rec = apply_masking(built, cfg, vocab, stream_rng(0, "masking", 0))
    assert rec.targets == ()
    assert rec.input_ids == built.ids


def test_masking_deterministic_per_ordinal(vocab):
    built = _built(vocab)
    cfg = MaskingConfig()
    a = apply_masking(built, cfg, vocab, stream_rng(7, "masking", 42))
    b = apply_masking(built, cfg, vocab, stream_rng(7, "masking", 42))
    assert a == b
    c = apply_masking(built, cfg, vocab, stream_rng(7, "masking", 43))
    d = apply_masking(built, cfg, vocab, stream_rng(8, "masking", 42))
    assert (a != c) or (a != d)  # at least one neighboring key differs


def test_masking_round_trip_restores_built_ids(vocab):
    built = _built(vocab, dim=TemporalDimension.TYPICAL_WEEK, value="Friday")
    cfg = MaskingConfig(p_mask=0.9, p_dim=0.5, p_event=0.9)
    for i in range(300):
        rec = apply_masking(built, cfg, vocab, stream_rng(1, "masking", i))
        restored = list(rec.input_ids)
        for t in rec.targets:
            restored[t.position] = t.token_id
        assert tuple(restored) == built.ids


def test_masking_branch_proportions(vocab):
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=1.0, p_dim=0.0, p_event=0.0)
    n = 5000
    masked = unchanged = randomized = 0
    original = built.ids[built.val_position]
    for i in range(n):
        rec = apply_masking(built, cfg, vocab, stream_rng(2, "masking", i))
        got = rec.input_ids[built.val_position]
        if got == MASK_ID:
            masked += 1
        elif got == original:
            unchanged += 1
        else:
            randomized += 1
            # noise ids come from the word range only
            assert vocab.word_id_start <= got < vocab.word_id_end
    assert masked / n == pytest.approx(0.8, abs=0.02)
    assert unchanged / n == pytest.approx(0.1, abs=0.02)
    assert randomized / n == pytest.approx(0.1, abs=0.02)


def test_hard_targets_mode(vocab):
    # A masked [Val] slot names its gold label; the hard target is one-hot on
    # it within the dimension's [Val] block.
    built = _built(vocab)
    cfg = MaskingConfig(p_mask=1.0, p_dim=0.0)
    rec = apply_masking(built, cfg, vocab, stream_rng(0, "masking", 0))
    assert built.val_position in tuple(t.position for t in rec.targets)
    start, labels = vocab.val_block(TemporalDimension.DURATION)
    label = labels[rec.val_token_id - start]
    assert label == "hour"
    base = len(vocab) - 62  # the [Val] ids are the last 62 ids
    row = val_targets("hard", 4.0, 0.5)[rec.val_token_id - base]
    hard = row[start - base:start - base + len(labels)]
    assert sorted(hard) == [0.0] * 8 + [1.0]
    assert row.sum() == 1.0
    gold_idx = label_space(TemporalDimension.DURATION).index("hour")
    assert hard[gold_idx] == 1.0


def test_masking_weight_recorded(vocab):
    built = _built(vocab)
    rec = apply_masking(built, MaskingConfig(), vocab,
                        stream_rng(0, "masking", 0), weight=2.5)
    assert rec.weight == 2.5


# --------------------------------------------------------------- round trips

def _sample_records(vocab, n=20):
    cfg = MaskingConfig(p_mask=0.7, p_dim=0.2, p_event=0.3)
    dims = [
        (TemporalDimension.DURATION, "hour", ()),
        (TemporalDimension.TYPICAL_MONTH, "October", ()),
        (TemporalDimension.HIERARCHY, "before", ("the", "speech")),
    ]
    records = []
    for i in range(n):
        dim, value, tail = dims[i % len(dims)]
        built = _built(vocab, dim=dim, value=value, tail=tail)
        records.append(apply_masking(built, cfg, vocab,
                                     stream_rng(5, "masking", i),
                                     weight=0.5 + i * 0.25))
    return records


def test_record_json_round_trip(tmp_path, vocab):
    records = _sample_records(vocab)
    path = tmp_path / "ds.jsonl"
    write_records_jsonl(str(path), records)
    for rec, line in zip(records, path.read_text().splitlines(), strict=True):
        obj = json.loads(line)
        assert set(obj) == {"input_ids", "targets", "weight", "dimension", "val_position"}
        assert all(set(t) == {"position", "token_id"} for t in obj["targets"])
        assert record_from_json_dict(obj) == rec


def test_records_jsonl_round_trip(tmp_path, vocab):
    records = _sample_records(vocab)
    path = str(tmp_path / "ds.jsonl")
    write_records_jsonl(path, records, header_lines=["made by tests"])
    back = read_records_jsonl(path, vocab)
    assert back == records
    with open(path) as f:
        assert f.readline() == "# made by tests\n"


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("weight"), "missing key 'weight'"),
    (lambda obj: obj["targets"][0].pop("position"), "missing key 'position'"),
    (lambda obj: obj.update(dimension="eon"), 'dimension must be one of: duration, .*; got "eon"'),
    (lambda obj: obj.update(input_ids="abc"), 'input_ids must be a list of integers, got "abc"'),
], ids=["no-weight", "no-target-position", "bad-dimension", "bad-ids"])
def test_records_jsonl_bad_line_names_file_and_line(tmp_path, vocab, edit, message):
    records = _sample_records(vocab, n=3)
    path = tmp_path / "ds.jsonl"
    write_records_jsonl(str(path), records, header_lines=["made by tests"])
    lines = path.read_text().splitlines(keepends=True)
    obj = json.loads(lines[2])
    edit(obj)
    lines[2] = json.dumps(obj) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match=rf"ds\.jsonl:3: {message}"):
        read_records_jsonl(str(path), vocab)


@pytest.mark.parametrize("weight", [0.1, 1 / 3, 1e-7, 1e16, 2.0, math.nan, math.inf, -math.inf])
def test_record_lines_are_sorted_json_dumps(tmp_path, weight):
    records = [
        TrainingRecord(input_ids=(0, 17, 123456), targets=(MaskTarget(1, 5), MaskTarget(2, 12)),
                       weight=weight, dimension=TemporalDimension.TYPICAL_SEASON, val_position=2),
        TrainingRecord(input_ids=(4,), targets=(), weight=weight,
                       dimension=TemporalDimension.HIERARCHY, val_position=0),
    ]
    expected = [
        {"input_ids": [0, 17, 123456],
         "targets": [{"position": 1, "token_id": 5}, {"position": 2, "token_id": 12}],
         "weight": weight, "dimension": "typical_season", "val_position": 2},
        {"input_ids": [4], "targets": [], "weight": weight, "dimension": "hierarchy",
         "val_position": 0},
    ]
    path = tmp_path / "ds.jsonl"
    write_records_jsonl(str(path), records)
    assert path.read_text() == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in expected)


@pytest.mark.parametrize("bad, named", [
    ({1: "V"}, "V"), ({2: -1}, -1), ({1: "V", 2: -1}, "V"), ({1: -1, 2: "V"}, -1),
], ids=["V", "negative", "V-first", "negative-first"])
def test_records_jsonl_names_the_first_id_outside_the_vocabulary(tmp_path, vocab, bad, named):
    rec = _sample_records(vocab, n=1)[0]
    ids = list(rec.input_ids)
    for i, token_id in bad.items():
        ids[i] = len(vocab) if token_id == "V" else token_id
    path = tmp_path / "ds.jsonl"
    write_records_jsonl(str(path), [rec, TrainingRecord(tuple(ids), rec.targets, rec.weight,
                                                        rec.dimension, rec.val_position)])
    with pytest.raises(SchemaError) as exc:
        read_records_jsonl(str(path), vocab)
    named = len(vocab) if named == "V" else named
    assert str(exc.value) == f"{path}:2: input id {named} outside the {len(vocab)}-token vocabulary"


def test_training_record_is_frozen(vocab):
    rec = _sample_records(vocab, n=1)[0]
    assert isinstance(rec, TrainingRecord)
    with pytest.raises(AttributeError):
        rec.weight = 0.0
