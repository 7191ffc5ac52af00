"""Mining temporal commonsense from SRL parses and training ordinal-aware
masked token models on the result.

The pipeline: ingest SRL sentences, classify temporal arguments into
(event, dimension, value) tuples, expand gold labels into distance-aware
soft targets, materialize masked training sequences, train a small
from-scratch encoder, and score predictions by ordinal rank distance.
"""

from .label_space import (
    TemporalDimension,
    Topology,
    LabelSpace,
    DurationUnit,
    DURATION_UNITS,
    label_space,
    all_label_spaces,
    canonical_seconds,
    logsec,
    nearest_unit,
    circular_distance,
    linear_distance,
    render_manifest,
)
from .seeding import stream_rng, stream_seed_sequence
from .srl_ingest import (
    SrlFrame,
    SrlSentence,
    SchemaError,
    CorpusReader,
    read_corpus,
    parse_sentence,
    sentence_to_json_dict,
)
from .extraction import (
    TemporalTuple,
    parse_numeric,
    extract_duration,
    extract_frequency,
    extract_typical_time,
    extract_upper_bound,
    extract_hierarchy,
    classify_temporal_argument,
    extract_sentence,
    read_tuples_jsonl,
    write_tuples_jsonl,
)
from .targets import (
    soft_target,
    hard_target,
    instance_weight,
    weight_table,
    label_count_tables,
    balance_keep_probabilities,
    subsample_tuples,
)
from .sequences import (
    Vocabulary,
    build_vocabulary,
    BuiltSequence,
    build_sequence,
    MaskingConfig,
    MaskTarget,
    TrainingRecord,
    apply_masking,
    soft_val_rows,
    read_records_jsonl,
    write_records_jsonl,
)
from .model import (
    TrainConfig,
    DivergenceError,
    init_params,
    forward,
    soft_ce_loss,
    assemble_batch,
    loss_and_gradients,
    train,
    predict_value_distribution,
    gradient_check,
    save_checkpoint,
    load_checkpoint,
)
from .evaluation import (
    EvalInstance,
    rank_distance,
    evaluate,
    report_csv_lines,
    distribution_csv_lines,
)
from .synthetic import (
    VerbRule,
    PLANTED_RULES,
    generate_corpus,
    split_sentences,
    planted_eval_instances,
)

__version__ = "0.1.0"
