"""Command line front end.

Subcommands cover the full protocol: synth, features, pretrain, finetune,
detect, eval, grid, report. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric divergence during training. An option that feeds a library
parameter is stored under that parameter's name and passed only when given,
so an omitted one takes the library's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .audio import load_annotations, load_audio, save_annotations
from .errors import ConfigError, DivergenceError, OnsetKitError
from .evaluate import PeakPickParams, compute_prf, match_onsets, peak_pick
from .experiment import (
    extract_snippet,
    instrument_pairs,
    load_config,
    load_corpus_spec,
    load_dataset,
    pretrain_model,
    read_results,
    run_grid,
    save_config,
    write_report,
)
from .features import extract_features
from .models import VARIANTS, FreezeConfig, load_model, save_model
from .synth import default_corpus_spec, generate_corpus
from .training import FinetuneConfig, finetune


class _Parser(argparse.ArgumentParser):
    """argparse exits usage failures with status 2; the contract here is 1."""

    def error(self, message):
        """Usage line, then argparse's message cut to its first 80 and last
        60 characters: it quotes a rejected value in full."""
        if len(message) > 80 + 3 + 60:
            message = f"{message[:80]}...{message[-60:]}"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _given(args, *names) -> dict:
    """{name: value} of the named options the command line gave."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _cmd_synth(args) -> int:
    spec = load_corpus_spec(args.config) if args.config is not None else default_corpus_spec()
    spec = dataclasses.replace(spec, **_given(args, "seed", "files_per_instrument",
                                              "file_duration", "tempo"))
    manifest = generate_corpus(spec, args.out, force=args.force, threads=args.threads)
    n = len(spec.instruments) * spec.files_per_instrument
    print(f"wrote {n} files, manifest {manifest}")
    return 0


def _cmd_features(args) -> int:
    feats = extract_features(load_audio(args.audio))
    out = Path(args.out) if args.out else Path(args.audio).with_suffix(".features.npz")
    with open(out, "wb") as fh:  # np.savez would append .npz to a path
        np.savez(fh, values=feats.values, frame_rate=feats.frame_rate)
    print(f"{feats.n_frames} frames x {feats.values.shape[1]} bands -> {out}")
    return 0


def _cmd_pretrain(args) -> int:
    instruments = args.instruments.split(",") if args.instruments else None
    if instruments is None:
        instruments = list(load_dataset(args.corpus))
    model, history = pretrain_model(args.corpus, instruments, args.variant, epochs=args.epochs,
                                    **_given(args, "seed", "base_lr", "dropout_rate"))
    save_model(model, args.out)
    print(f"{args.variant} on {','.join(instruments)}: "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}, saved {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    config = FinetuneConfig(FreezeConfig.from_id(args.freeze),
                            **_given(args, "seed", "epochs", "lr_scale", "base_lr"))
    model = load_model(args.model)
    pairs = instrument_pairs(load_dataset(args.corpus), args.instrument, f"corpus {args.corpus}")
    feats, targets, held = extract_snippet(pairs, args.offset)
    adapted = finetune(model, (feats, targets), config)
    save_model(adapted, args.out)
    print(f"adapted {model.variant} to {args.instrument} ({args.freeze}), "
          f"held out file {held:02d}, saved {args.out}")
    return 0


def _cmd_detect(args) -> int:
    model = load_model(args.model)
    feats = extract_features(load_audio(args.audio))
    onsets = peak_pick(model.forward(feats),
                       PeakPickParams(**_given(args, "threshold", "delta", "min_gap")))
    out = Path(args.out) if args.out else Path(args.audio).with_suffix(".est.onsets")
    save_annotations(onsets, out)
    print(f"{len(onsets)} onsets -> {out}")
    return 0


def _cmd_eval(args) -> int:
    est = load_annotations(args.estimates)
    ref = load_annotations(args.reference)
    p, r, f1 = compute_prf(match_onsets(est, ref, **_given(args, "tolerance")))
    print(f"P={p:.3f} R={r:.3f} F1={f1:.3f}")
    return 0


def _cmd_grid(args) -> int:
    config = dataclasses.replace(load_config(args.config), **_given(args, "out_dir", "seed"))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "config.json")  # the resolved, diff-able record
    rows = run_grid(config, threads=args.threads)
    if not rows:
        print("error: every cycle failed; see journal.jsonl", file=sys.stderr)
        return 2
    csv_path, md_path = write_report(rows, out)
    print(f"{len(rows)} rows -> {csv_path}; summary {md_path}")
    return 0


def _cmd_report(args) -> int:
    rows = read_results(args.results)
    out = args.out if args.out else Path(args.results).parent
    csv_path, md_path = write_report(rows, out)
    print(f"{len(rows)} rows -> {md_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="onsetkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--config", help="corpus spec JSON (default: built-in roster)")
    p.add_argument("--seed", type=int)
    p.add_argument("--files", type=int, dest="files_per_instrument", help="files per instrument")
    p.add_argument("--duration", type=float, dest="file_duration", help="file length in s")
    p.add_argument("--tempo", type=float)
    p.add_argument("--threads", type=positive_int, default=1)
    p.add_argument("--force", action="store_true", help="overwrite existing files")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="extract a feature matrix from audio")
    p.add_argument("audio")
    p.add_argument("--out", help="output .npz (default: alongside the audio)")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("pretrain", help="train a base model on a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--variant", choices=VARIANTS, default="tcn_v1")
    p.add_argument("--instruments", help="comma-separated subset (default: all)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float, dest="base_lr")
    p.add_argument("--dropout", type=float, dest="dropout_rate")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt a model to one instrument snippet")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("instrument")
    p.add_argument("--out", required=True, help="adapted model file")
    p.add_argument("--freeze", default="ft", help="freeze id, e.g. ft, ft_Conv3, ft_Tcn16")
    p.add_argument("--offset", type=float, help="snippet offset s (default: first annotated window)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr-scale", type=float, dest="lr_scale")
    p.add_argument("--lr", type=float, dest="base_lr")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("detect", help="run a model on audio, write onset times")
    p.add_argument("model")
    p.add_argument("audio")
    p.add_argument("--out", help="output .onsets (default: <audio>.est.onsets)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--min-gap", type=float, dest="min_gap")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score estimated onsets against a reference")
    p.add_argument("estimates")
    p.add_argument("reference")
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="run the full fine-tuning grid from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", dest="out_dir", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--threads", type=positive_int, default=1)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("report", help="rebuild tables from a results CSV")
    p.add_argument("results")
    p.add_argument("--out", help="output directory (default: beside the CSV)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OnsetKitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
