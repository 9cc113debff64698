"""Onset detection toolkit: TCN models, fine-tuning protocol, synthetic corpora.

The package is numpy-only end to end: WAV in, log-filterbank features,
two dilated-convolution architectures trained with hand-rolled Adam or
RAdam+Lookahead, layer-freeze fine-tuning on 5 s snippets, peak picking,
and F-measure evaluation, plus a deterministic synthetic percussion corpus
generator and an experiment harness behind the `onsetkit` CLI.
"""

from .audio import (
    AudioClip,
    OnsetAnnotations,
    load_annotations,
    load_audio,
    save_annotations,
    save_wav,
)
from .errors import (
    AnnotationError,
    AudioFormatError,
    ConfigError,
    DataError,
    DivergenceError,
    EmptyInputError,
    ModelFormatError,
    OnsetKitError,
    SampleRateError,
    ShapeError,
    SnippetError,
)
from .evaluate import (
    EvalResult,
    MatchResult,
    PeakPickParams,
    aggregate,
    compute_prf,
    delta_pp,
    match_onsets,
    peak_pick,
)
from .experiment import (
    ExperimentConfig,
    ResultRow,
    evaluate_model,
    extract_snippet,
    load_config,
    load_corpus_spec,
    load_dataset,
    pretrain_model,
    read_results,
    run_cycle,
    run_grid,
    write_report,
)
from .features import FeatureMatrix, extract_features
from .models import (
    FreezeConfig,
    Model,
    apply_freeze,
    build_model,
    canonical_freeze_ids,
    clone_model,
    count_params,
    load_model,
    receptive_field,
    save_model,
)
from .synth import (
    CorpusSpec,
    InstrumentProfile,
    default_corpus_spec,
    default_instruments,
    generate_corpus,
    load_manifest,
    make_profile,
    render_file,
)
from .training import FinetuneConfig, finetune, make_targets, train

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
