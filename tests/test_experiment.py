import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onsetkit
from onsetkit.audio import OnsetAnnotations, save_annotations, save_wav
from onsetkit.errors import ConfigError, DataError, OnsetKitError, SnippetError
from onsetkit.evaluate import PeakPickParams, peak_pick
from onsetkit.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    config_from_json,
    evaluate_model,
    extract_snippet,
    load_config,
    load_dataset,
    pretrain_model,
    read_results,
    row_seed,
    run_cycle,
    run_grid,
    save_config,
    write_report,
)
from onsetkit.models import (
    FreezeConfig,
    apply_freeze,
    build_model,
    canonical_freeze_ids,
    clone_model,
    save_model,
)
from onsetkit.synth import CorpusSpec, file_seed, generate_corpus, make_profile, render_file

from model_caches import assert_holds_no_caches
from results_text import strip_wall_column


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec((make_profile("alpha", "time-keeping", 0),
                       make_profile("beta", "voicing", 0)),
                      files_per_instrument=2, file_duration=5.0, tempo=180.0, seed=5)
    generate_corpus(spec, root)
    return root


@pytest.fixture(scope="module")
def base_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for variant in ("tcn_v1", "tcn_v2"):
        model = build_model(variant, seed=1)
        paths[variant] = root / f"{variant}.model"
        save_model(model, paths[variant])
    return paths


def quick_config(corpus, base_models, out_dir, **kw):
    base = dict(corpus=str(corpus), base_models={k: str(v) for k, v in base_models.items()},
                models=("tcn_v1",), epochs=2, out_dir=str(out_dir))
    base.update(kw)
    return ExperimentConfig(**base)


def test_extract_snippet_default_window(corpus):
    dataset = load_dataset(corpus)
    feats, targets, held = extract_snippet(dataset["alpha"])
    assert feats.n_frames == 500  # 5 s at 100 fps
    assert held == 1
    assert np.sum(targets == 1.0) >= 1


def test_extract_snippet_thirty_second_file(tmp_path):
    prof = make_profile("gamma", "voicing", 2)
    clip, ann = render_file(prof, 30.0, 180.0, 3)
    save_wav(clip, tmp_path / "gamma_01.wav")
    save_annotations(ann, tmp_path / "gamma_01.onsets")
    from onsetkit.experiment import FilePair
    pairs = [FilePair("gamma", 1, tmp_path / "gamma_01.wav", tmp_path / "gamma_01.onsets")]
    feats, _, held = extract_snippet(pairs, offset=0.0)
    assert feats.n_frames == 500
    assert held == 1


def test_extract_snippet_errors(tmp_path):
    from onsetkit.audio import AudioClip
    from onsetkit.experiment import FilePair
    sr = 44100
    t = np.arange(10 * sr) / sr
    # a 10 s quiet file whose only annotation sits at 8 s
    save_wav(AudioClip(0.1 * np.sin(2 * np.pi * 440 * t), sr), tmp_path / "solo_01.wav")
    save_annotations(OnsetAnnotations(np.array([8.0])), tmp_path / "solo_01.onsets")
    pairs = [FilePair("solo", 1, tmp_path / "solo_01.wav", tmp_path / "solo_01.onsets")]
    with pytest.raises(SnippetError):
        extract_snippet(pairs, offset=0.0)
    feats, targets, _ = extract_snippet(pairs)  # default offset walks to an annotated window
    assert np.sum(targets == 1.0) == 1
    with pytest.raises(ConfigError):
        extract_snippet(pairs, offset=9.0)  # window overruns the file
    # annotation-free file: every window fails
    save_annotations(OnsetAnnotations(), tmp_path / "solo_01.onsets")
    with pytest.raises(SnippetError):
        extract_snippet(pairs)
    # file shorter than the snippet
    save_wav(AudioClip(np.zeros(2 * sr), sr), tmp_path / "tiny_01.wav")
    save_annotations(OnsetAnnotations(np.array([1.0])), tmp_path / "tiny_01.onsets")
    short = [FilePair("tiny", 1, tmp_path / "tiny_01.wav", tmp_path / "tiny_01.onsets")]
    with pytest.raises(ConfigError):
        extract_snippet(short)


def test_row_seed_depends_on_identity():
    s = row_seed(7, "tcn_v1", "alpha", "ft")
    assert s == row_seed(7, "tcn_v1", "alpha", "ft")
    others = {row_seed(8, "tcn_v1", "alpha", "ft"), row_seed(7, "tcn_v2", "alpha", "ft"),
              row_seed(7, "tcn_v1", "beta", "ft"), row_seed(7, "tcn_v1", "alpha", "ft_Conv1")}
    assert s not in others and len(others) == 4


def test_run_cycle_row(corpus, base_models, tmp_path):
    config = quick_config(corpus, base_models, tmp_path)
    row = run_cycle(base_models["tcn_v1"], "alpha", "ft_Tcn1024", config)
    assert row.model == "tcn_v1" and row.instrument == "alpha"
    assert row.n_files == 1 == len(row.per_file_f1)  # 2 files minus the held-out snippet source
    assert 0.0 <= row.mean_f1 <= 1.0
    assert abs(row.delta_pp - (row.mean_f1 - row.baseline_f1) * 100.0) <= 1e-9
    # baseline is a property of the base model alone, not of the freeze id
    row2 = run_cycle(base_models["tcn_v1"], "alpha", "ft_Conv2", config)
    assert row2.baseline_f1 == row.baseline_f1


def test_run_cycle_attaches_identity(corpus, base_models, tmp_path):
    config = quick_config(corpus, base_models, tmp_path)
    with pytest.raises(ConfigError, match=r"nowhere/ft"):
        run_cycle(base_models["tcn_v1"], "nowhere", "ft", config)


def test_run_grid_rows_and_reports(corpus, base_models, tmp_path):
    config = quick_config(corpus, base_models, tmp_path / "a", epochs=1,
                          freeze_configs=("ft", "ft_Conv3"))
    rows = run_grid(config)
    assert len(rows) == 4  # 1 model x 2 instruments x 2 configs
    assert [(r.instrument, r.freeze_id) for r in rows] == [
        ("alpha", "ft"), ("alpha", "ft_Conv3"), ("beta", "ft"), ("beta", "ft_Conv3")]
    journal = (tmp_path / "a" / "journal.jsonl").read_text().splitlines()
    assert len(journal) == 4 and all(json.loads(ln)["status"] == "ok" for ln in journal)

    csv_path, md_path = write_report(rows, tmp_path / "a")
    back = read_results(csv_path)
    assert back == rows
    md = md_path.read_text()
    assert "| tcn_v1 | alpha |" in md and "| tcn_v1 | beta |" in md

    # identical config and seed give identical results regardless of threads
    config_b = dataclasses.replace(config, out_dir=str(tmp_path / "b"))
    rows_b = run_grid(config_b, threads=3)
    csv_b, _ = write_report(rows_b, tmp_path / "b")
    assert strip_wall_column(csv_path.read_text()) == strip_wall_column(csv_b.read_text())
    # and the same journal, line for line, once wall time is dropped
    journal_b = (tmp_path / "b" / "journal.jsonl").read_text().splitlines()
    assert [{**json.loads(ln), "wall_s": None} for ln in journal_b] == [
        {**json.loads(ln), "wall_s": None} for ln in journal]


def test_run_grid_prepares_each_pair_once(corpus, base_models, tmp_path, monkeypatch):
    import onsetkit.experiment as experiment

    calls = []
    for name in ("load_model", "extract_snippet", "finetune"):
        def counted(*args, _name=name, _inner=getattr(experiment, name), **kwargs):
            calls.append((_name, threading.get_ident()))
            return _inner(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    config = quick_config(corpus, base_models, tmp_path, epochs=1,
                          models=("tcn_v1", "tcn_v2"), freeze_configs=("ft", "ft_Conv3"))
    rows = run_grid(config)
    assert len(rows) == 8  # 2 models x 2 instruments x 2 configs
    names = [name for name, _ in calls]
    assert names.count("load_model") == 2  # one per model
    assert names.count("extract_snippet") == 4  # one per (model, instrument)
    # one thread runs every cycle on the calling thread, not in a pool
    assert names.count("finetune") == 8 and {t for _, t in calls} == {threading.get_ident()}


def test_scoring_from_boundaries_is_the_full_forward(tmp_path, monkeypatch):
    import onsetkit.experiment as experiment

    spec = CorpusSpec((make_profile("alpha", "time-keeping", 0),),
                      files_per_instrument=3, file_duration=5.0, tempo=180.0, seed=6)
    generate_corpus(spec, tmp_path)
    pairs = load_dataset(tmp_path)["alpha"]
    acts = []
    monkeypatch.setattr(experiment, "peak_pick",
                        lambda act, params=None: acts.append(act.tobytes()) or OnsetAnnotations())
    base = build_model("tcn_v2", seed=3)
    cache = {}
    evaluate_model(base, pairs, 1, cache=cache)
    held_in = [str(p.wav) for p in pairs if p.index != 1]
    prefixes = {block: {key: base.prefix(cache[key][0], upto=block) for key in held_in}
                for block in range(1, 15)}
    for block in prefixes:  # the base itself from each block's prefix
        evaluate_model(base, pairs, 1, cache=cache, prefixes=prefixes[block])
    assert len(acts) == 2 * 15 and set(acts[0::2]) == {acts[0]} and set(acts[1::2]) == {acts[1]}
    for fid in canonical_freeze_ids()[1:]:
        adapted = apply_freeze(clone_model(base), FreezeConfig.from_id(fid))
        for key, value in adapted.param_dict().items():
            if key.split(".")[0] not in FreezeConfig.from_id(fid).frozen:
                value *= 1.5
        acts.clear()
        evaluate_model(adapted, pairs, 1, cache=cache)
        evaluate_model(adapted, pairs, 1, cache=cache,
                       prefixes=prefixes[adapted.lowest_trainable])
        assert len(acts) == 4 and acts[:2] == acts[2:], fid


def test_run_grid_scores_from_the_base_conv3_inputs(corpus, base_models, tmp_path, monkeypatch):
    import onsetkit.experiment as experiment

    starts, runs, inner, load = [], [], experiment.evaluate_model, experiment.load_model

    def spy(model, pairs, exclude_index, *args, **kwargs):
        prefixes = args[3] if len(args) > 3 else kwargs.get("prefixes")
        starts.append(prefixes and {p.start for p in prefixes.values()})
        if prefixes:
            assert len(prefixes) == len(pairs) - 1  # every held-in file
            assert not any(p.activated or p.x.flags.writeable for p in prefixes.values())
        return inner(model, pairs, exclude_index, *args, **kwargs)

    def load_spy(path):  # counts the base's Conv1 and Conv2 inference forwards
        model = load(path)
        for nl in model.layers[:2]:
            def forward(x, rng=None, keep=False, inner=nl.block.forward,
                        key=(model.variant, nl.name)):
                if rng is None:
                    runs.append(key + (x.shape[0],))
                return inner(x, rng, keep)
            nl.block.forward = forward
        return model

    monkeypatch.setattr(experiment, "load_model", load_spy)
    monkeypatch.setattr(experiment, "evaluate_model", spy)
    fids = ("ft", "ft_Conv1", "ft_Conv2", "ft_Tcn16", "ft_Tcn4-Tcn64")
    config = quick_config(corpus, base_models, tmp_path / "grid", epochs=1,
                          models=("tcn_v1", "tcn_v2"), freeze_configs=fids)
    rows = run_grid(config)
    # the baseline and the cycles that leave Conv1 and Conv2 frozen score
    # from Conv3, the others from the features
    conv3 = {2}
    per_pair = [conv3, None, None, conv3, conv3, None]  # the baseline, then fids
    assert starts == per_pair * 4
    # the base's Conv1 and Conv2 run once per held-in file per (variant,
    # instrument): 5 s files, one of two held in
    assert sorted(runs) == sorted((v, layer, 500) for v in ("tcn_v1", "tcn_v2")
                                  for _ in ("alpha", "beta") for layer in ("Conv1", "Conv2"))
    # a lone cycle prepares its pair the same way: its baseline scores from
    # Conv3 too, and its row is the grid's
    for row, fid, start in zip(rows, fids, per_pair[1:]):
        starts.clear()
        runs.clear()
        alone = run_cycle(base_models["tcn_v1"], "alpha", fid, config)
        assert starts == [conv3, start], fid
        assert sorted(runs) == [("tcn_v1", "Conv1", 500), ("tcn_v1", "Conv2", 500)], fid
        assert dataclasses.replace(alone, wall_s=0.0) == dataclasses.replace(row, wall_s=0.0)


def test_run_grid_survives_cycle_failure(base_models, tmp_path):
    spec = CorpusSpec((make_profile("good", "voicing", 1),
                       dataclasses.replace(make_profile("bad", "voicing", 1),
                                           name="bad", onset_density=0.0)),
                      files_per_instrument=2, file_duration=5.0, seed=2)
    generate_corpus(spec, tmp_path / "c")
    config = quick_config(tmp_path / "c", base_models, tmp_path / "out",
                          epochs=1, freeze_configs=("ft",))
    rows = run_grid(config)
    assert [r.instrument for r in rows] == ["good"]
    entries = [json.loads(ln) for ln in (tmp_path / "out" / "journal.jsonl").read_text().splitlines()]
    by_status = {e["status"] for e in entries}
    assert by_status == {"ok", "error"} and len(entries) == 2
    err = next(e for e in entries if e["status"] == "error")
    assert err["instrument"] == "bad" and "annotation" in err["error"]


def test_summary_ties_share_cell(tmp_path):
    def row(freeze, f1):
        return ResultRow("tcn_v1", "x", freeze, f1, 0.5, (f1 - 0.5) * 100.0, 1, 0, 0.1, (f1,))
    rows = [row("ft", 0.9), row("ft_Conv1", 0.9), row("ft_Conv2", 0.8)]
    _, md_path = write_report(rows, tmp_path)
    assert "ft/ft_Conv1" in md_path.read_text()


def test_report_writes_utf8_under_an_ascii_locale(tmp_path):
    """onsetkit report rewrites the same bytes for a non-ASCII instrument name
    whatever the locale's encoding."""
    row = ResultRow("tcn_v1", "Gongu\u00ea", "ft", 0.5, 0.25, 25.0, 1, 0, 0.1, (0.5,))
    csv_path, _ = write_report([row], tmp_path / "a")
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "POSIX",
           "PYTHONPATH": str(Path(onsetkit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "onsetkit.cli", "report", str(csv_path),
                           "--out", str(tmp_path / "b")], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-500:]
    assert (tmp_path / "b" / "results.csv").read_bytes() == csv_path.read_bytes()
    assert "Gongu\u00ea" in (tmp_path / "b" / "summary.md").read_text(encoding="utf-8")


def test_report_requires_rows(tmp_path):
    with pytest.raises(ConfigError):
        write_report([], tmp_path)


def test_results_csv_errors(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("model,instrument\n")
    with pytest.raises(DataError):
        read_results(p)
    p.write_text("# results-format: 1\nmodel,instrument\n")
    with pytest.raises(DataError):
        read_results(p)
    with pytest.raises(DataError):
        read_results(tmp_path / "missing.csv")
    with pytest.raises(DataError):
        strip_wall_column("just,a,csv\n")


def test_read_results_malformed_rows_are_data_errors(tmp_path):
    row = ResultRow(model="tcn_v1", instrument="a", freeze_id="ft", mean_f1=0.5,
                    baseline_f1=0.25, delta_pp=25.0, n_files=2, seed=1, wall_s=0.1,
                    per_file_f1=(0.5, 0.5))
    good, _ = write_report([row], tmp_path)
    text = good.read_text()
    assert read_results(good) == [row]
    bad = tmp_path / "bad.csv"
    for old, new in [('"[0.5, 0.5]"', "5"), ('"[0.5, 0.5]"', '"[[1], [1]]"'),
                     ('"[0.5, 0.5]"', '"{""a"": 1}"'), ('"[0.5, 0.5]"', '"""12"""'),
                     ('"[0.5, 0.5]"', '"[true, 0.5]"'), ('"[0.5, 0.5]"', "[0.5"),
                     ('"[0.5, 0.5]"', '"[1' + "0" * 400 + ', 0.5]"'),  # too big for a float
                     ("0.5,0.25,25.0", "0.5,0.25,99.0"),  # delta_pp is not mean - baseline
                     ("0.5,0.25,25.0", "1.5,0.25,125.0"),  # mean F1 out of range
                     ("0.5,0.25,25.0", "0.5,nan,25.0"), ("0.5,0.25,25.0", "0.5,0.25,nan"),
                     ("0.5,0.25,25.0", "0.5,5.0,-450.0"),  # baseline F1 out of range
                     ('"[0.5, 0.5]"', '"[7.0, 0.5]"'), ('"[0.5, 0.5]"', '"[NaN, 0.5]"'),
                     (",2,1,0.1,", ",2,-3,0.1,"),  # negative seed
                     (",1,0.1,", ",1,nan,"), (",1,0.1,", ",1,-1.0,"),  # wall time
                     (",2,1,", ",3,1,")]:  # n_files does not match the list
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        with pytest.raises(DataError):
            read_results(bad)
    bad.write_bytes(text.encode().replace(b"tcn_v1", b"tcn_\xff1"))
    with pytest.raises(DataError, match="UTF-8"):
        read_results(bad)


def test_real_layout_ingestion(tmp_path):
    from onsetkit.audio import AudioClip
    sr = 44100
    for idx in (1, 2, 34):
        d = tmp_path / "Alpha"
        d.mkdir(exist_ok=True)
        save_wav(AudioClip(np.zeros(sr), sr), d / f"Alpha_{idx:02d}.wav")
        save_annotations(OnsetAnnotations(np.array([0.5])), d / f"Alpha_{idx:02d}.onsets")
    dataset = load_dataset(tmp_path)
    assert list(dataset) == ["Alpha"]
    assert [p.index for p in dataset["Alpha"]] == [1, 2]  # 34 skipped when present
    # a wav without annotations is an error
    save_wav(AudioClip(np.zeros(sr), sr), tmp_path / "Alpha" / "Alpha_03.wav")
    with pytest.raises(DataError):
        load_dataset(tmp_path)
    with pytest.raises(DataError):
        load_dataset(tmp_path / "Alpha" / "Alpha_03.wav")


def test_real_layout_indices_are_ascii_digits(tmp_path):
    from onsetkit.audio import AudioClip
    d = tmp_path / "Bell"
    d.mkdir()
    # "\u00b2" and "\u0663" pass str.isdigit; only ASCII digits make an index
    for tail in ("01", "\u00b2", "\u0663", "x1"):
        save_wav(AudioClip(np.zeros(4410), 44100), d / f"Bell_{tail}.wav")
        save_annotations(OnsetAnnotations(np.array([0.05])), d / f"Bell_{tail}.onsets")
    assert [(p.index, p.wav.name) for p in load_dataset(tmp_path)["Bell"]] == [(1, "Bell_01.wav")]
    (d / "Bell_01.wav").unlink()
    with pytest.raises(DataError, match="no instruments"):
        load_dataset(tmp_path)


def test_real_layout_folder_names_may_hold_glob_characters(tmp_path):
    from onsetkit.audio import AudioClip
    names = ("Alfaia", "Caixa[1]", "Gongue*", "Agbe?")
    for name in names:
        d = tmp_path / name
        d.mkdir()
        for idx in (1, 2):
            save_wav(AudioClip(np.zeros(4410), 44100), d / f"{name}_{idx:02d}.wav")
            save_annotations(OnsetAnnotations(np.array([0.05])), d / f"{name}_{idx:02d}.onsets")
    dataset = load_dataset(tmp_path)
    assert sorted(dataset) == sorted(names)
    for name in names:
        assert [p.wav.name for p in dataset[name]] == [f"{name}_01.wav", f"{name}_02.wav"]


def test_pretrain_model_runs(corpus):
    model, history = pretrain_model(corpus, ["alpha"], "tcn_v1", epochs=1, seed=0)
    assert model.variant == "tcn_v1"
    assert len(history) == 1 and np.isfinite(history[0])
    assert_holds_no_caches(model)
    with pytest.raises(ConfigError):
        pretrain_model(corpus, ["nope"], "tcn_v1", epochs=1)


def test_config_json_round_trip(tmp_path, corpus, base_models):
    config = ExperimentConfig(
        corpus=str(corpus),
        base_models={"tcn_v1": str(base_models["tcn_v1"])},
        models=("tcn_v1",), instruments=("alpha",),
        freeze_configs=("ft", "ft_Tcn4"), snippet_offset=0.0,
        epochs=3, peak_pick=PeakPickParams(threshold=0.4, delta=0.05),
        seed=11, out_dir=str(tmp_path / "out"),
    )
    save_config(config, tmp_path / "exp.json")
    assert load_config(tmp_path / "exp.json") == config


def test_config_of_numpy_scalars_round_trips(tmp_path):
    """save_config writes numpy scalars as JSON numbers, which load_config reads back."""
    config = ExperimentConfig(corpus="/abs/corpus", seed=np.int64(3), epochs=np.int64(5),
                              snippet_duration=np.float32(5.0), out_dir="/o")
    save_config(config, tmp_path / "exp.json")
    loaded = load_config(tmp_path / "exp.json")
    assert loaded == config and (loaded.seed, loaded.epochs, loaded.snippet_duration) == (3, 5, 5.0)


def test_config_json_inline_corpus_and_errors(tmp_path):
    obj = {
        "corpus": {
            "instruments": [
                {"name": "a", "role": "time-keeping", "profile_seed": 1},
                {"name": "b", "role": "voicing", "decay_span": [80.0, 120.0],
                 "spectral_mode": "noise-burst", "center_freq": 0.0,
                 "onset_density": 8.9, "amplitude_jitter": 0.1},
            ],
            "files_per_instrument": 2, "file_duration": 5.0, "tempo": 170.0, "seed": 4,
        },
        "models": ["tcn_v1"],
    }
    config = config_from_json(obj)
    assert isinstance(config.corpus, CorpusSpec)
    assert [p.name for p in config.corpus.instruments] == ["a", "b"]
    with pytest.raises(ConfigError):
        config_from_json({"corpus": ".", "typo_key": 1})
    with pytest.raises(ConfigError):
        config_from_json({"models": ["tcn_v1"]})  # corpus missing
    with pytest.raises(ConfigError):
        config_from_json({"corpus": ".", "models": ["tcn_v9"]})
    for bad in ({"corpus": 5}, {"corpus": ".", "base_models": []},
                {"corpus": ".", "base_models": {"tcn_v1": 3}}, {"corpus": ".", "models": "tcn_v1"},
                {"corpus": ".", "freeze_configs": [1]}, {"corpus": ".", "instruments": 7},
                {"corpus": ".", "freeze_configs": []}, {"corpus": ".", "instruments": []},
                {"corpus": ".", "freeze_configs": ["ft", "ft"]},
                {"corpus": ".", "instruments": ["a", "b", "a"]},
                {"corpus": ".", "models": ["tcn_v1", "tcn_v2", "tcn_v1"]},
                {"corpus": {"instruments": 3}}, {"corpus": {"instruments": [3]}},
                {"corpus": {"instruments": [{"name": "a", "role": "voicing", "profile_seed": -1}]}},
                {"corpus": {"instruments": [{"name": "\ud800", "role": "voicing",
                                             "profile_seed": 1}]}},
                {"corpus": ".", "epochs": "ten"}, {"corpus": ".", "epochs": 0},
                {"corpus": ".", "epochs": True}, {"corpus": ".", "lr_scale": -1},
                {"corpus": ".", "base_lr": 0}, {"corpus": ".", "dropout_active": 1},
                {"corpus": ".", "seed": 1.5}, {"corpus": ".", "snippet_offset": "0"},
                {"corpus": ".", "tolerance": float("nan")}, {"corpus": ".", "tolerance": -1},
                {"corpus": ".", "snippet_duration": float("inf")},
                {"corpus": ".", "snippet_offset": float("nan")},
                {"corpus": ".", "base_lr": float("nan")}, {"corpus": ".", "lr_scale": float("nan")},
                {"corpus": ".", "peak_pick": {"min_gap": float("inf")}}):
        with pytest.raises(ConfigError):
            config_from_json(bad)
    assert config_from_json({"corpus": ".", "instruments": None}).instruments is None
    spec = obj["corpus"]
    for bad, key in (({"corpus": ".", "peak_pick": {"w_max": 1.5}}, "w_max"),
                     ({"corpus": ".", "peak_pick": {"w_max": True}}, "w_max"),
                     ({"corpus": {**spec, "files_per_instrument": 2.5}}, "files_per_instrument"),
                     ({"corpus": {**spec, "seed": 1.5}}, "corpus.seed"),
                     ({"corpus": {**spec, "instruments": [
                         {"name": "a", "role": "voicing", "profile_seed": "7"}]}}, "profile_seed"),
                     ({"corpus": {**spec, "instruments": [
                         {"name": "a", "role": "voicing", "profile_seed": 7.9}]}}, "profile_seed")):
        with pytest.raises(ConfigError, match=key):
            config_from_json(bad)
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(DataError):
        load_config(p)
    p.write_bytes(b'{"corpus": "caf\xe9"}')
    with pytest.raises(DataError, match="not UTF-8"):
        load_config(p)


def test_config_relative_paths_resolve_against_file(tmp_path, corpus):
    (tmp_path / "exp.json").write_text(json.dumps(
        {"corpus": "data", "base_models": {"tcn_v1": "m/v1.model"}, "out_dir": "runs"}))
    config = load_config(tmp_path / "exp.json")
    assert config.corpus == str(tmp_path / "data")
    assert config.base_models["tcn_v1"] == str(tmp_path / "m" / "v1.model")
    assert config.out_dir == str(tmp_path / "runs")


# -- properties of the two parsers ------------------------------------------

# what a cell of a results row may hold: any text but surrogates, which
# UTF-8 cannot encode
cell_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
unit_floats = st.floats(0.0, 1.0)


@st.composite
def result_rows(draw):
    mean, baseline = draw(unit_floats), draw(unit_floats)
    per_file = tuple(draw(st.lists(unit_floats, max_size=5)))
    return ResultRow(draw(cell_text), draw(cell_text), draw(cell_text), mean, baseline,
                     (mean - baseline) * 100.0, len(per_file), draw(st.integers(0, 2**32 - 1)),
                     draw(st.floats(0.0, 1e6)), per_file)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(result_rows(), min_size=1, max_size=4))
@example(rows=[ResultRow("tcn_v1", name, "ft", 0.5, 0.25, 25.0, 1, 0, 0.1, (0.5,))
               for name in ("a\x1cb", "c\x85d", "e\u2028f", "g\nh", "i,\"j\"", "k\rl", "m\r\nn")])
def test_results_csv_round_trips(scratch, rows):
    csv_path, _ = write_report(rows, scratch)
    assert read_results(csv_path) == rows
    stripped = strip_wall_column(csv_path.read_text(encoding="utf-8"))
    assert len(list(csv.reader(io.StringIO(stripped, newline="")))) == len(rows) + 2


results_cells = st.one_of(
    st.sampled_from(["tcn_v1", "ft", "0.5", "0.25", "25.0", "1", "-1", "nan", "inf", "1e999",
                     "[0.5]", "[]", '"[0.5, 0.5]"', "[true]", '"x""y"', "", " "]),
    st.text(max_size=8),
)


@st.composite
def results_texts(draw):
    """Results files, mostly with the right header lines and rows of ten cells."""
    lines = []
    if draw(st.integers(0, 5)):
        lines.append("# results-format: 1")
    if draw(st.integers(0, 5)):
        lines.append(",".join(CSV_COLUMNS))
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.sampled_from([10, 10, 10, 9, 11]))
        lines.append(",".join(draw(results_cells) for _ in range(n)))
    text = "\n".join(lines) + "\n"
    return draw(st.text(max_size=60)) if draw(st.integers(0, 9)) == 0 else text


@settings(max_examples=300, deadline=None)
@given(text=results_texts())
def test_read_results_returns_or_raises_typed_error(scratch, text):
    p = scratch / "any.csv"
    p.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        rows = read_results(p)
    except OnsetKitError:
        return
    assert all(isinstance(r, ResultRow) for r in rows)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", ".", "tcn_v1", "tcn_v9", "ft", "ft_Tcn4", "alpha", "voicing",
                       "time-keeping", "damped-tone"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)
_VALID_PROFILE = {"name": "b", "role": "voicing", "decay_span": [80.0, 120.0],
                  "spectral_mode": "noise-burst", "center_freq": 0.0, "onset_density": 8.9,
                  "amplitude_jitter": 0.1}
_VALID_CONFIG = {
    "corpus": {"instruments": [{"name": "a", "role": "time-keeping", "profile_seed": 1},
                               _VALID_PROFILE],
               "files_per_instrument": 2, "file_duration": 5.0, "tempo": 170.0, "seed": 4},
    "base_models": {"tcn_v1": "m.model"}, "models": ["tcn_v1"], "instruments": ["a"],
    "freeze_configs": ["ft", "ft_Tcn4"], "snippet_offset": 0.5, "snippet_duration": 5.0,
    "epochs": 3, "lr_scale": 0.5, "base_lr": 0.001, "dropout_active": True,
    "peak_pick": {"threshold": 0.4, "w_max": 1, "w_avg": 2, "delta": 0.0, "min_gap": 0.03},
    "tolerance": 0.025, "seed": 2, "out_dir": "out",
}


@st.composite
def config_objects(draw):
    """A valid config with up to three values (top-level, in the corpus spec
    or in one of its profiles) replaced by arbitrary JSON or dropped, and
    maybe an integer field holding a non-integer float or true."""
    obj = json.loads(json.dumps(_VALID_CONFIG))
    corpus, picking = obj["corpus"], obj["peak_pick"]
    nested = [obj, corpus, corpus["instruments"][0], corpus["instruments"][1], picking]
    int_fields = [(obj, "epochs"), (obj, "seed"), (corpus, "files_per_instrument"),
                  (corpus, "seed"), (nested[2], "profile_seed"), (picking, "w_max"),
                  (picking, "w_avg")]
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(nested))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    if draw(st.booleans()):
        target, key = draw(st.sampled_from(int_fields))
        target[key] = draw(st.just(True) | st.floats(allow_nan=False).filter(
            lambda v: not v.is_integer()))
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=config_objects())
def test_config_from_json_returns_or_raises_typed_error(obj):
    """A config that loads can be used: a bad type fails loading, not later."""
    try:
        config = config_from_json(obj)
    except OnsetKitError:
        return
    assert isinstance(config, ExperimentConfig)
    peak_pick(np.zeros(8), config.peak_pick)
    if isinstance(config.corpus, CorpusSpec):
        spec = config.corpus
        for profile in spec.instruments:
            for i in range(spec.files_per_instrument):
                file_seed(spec.seed, profile.name, i)


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=80))
def test_load_config_on_any_text_returns_or_raises_typed_error(scratch, text):
    p = scratch / "any.json"
    p.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        config = load_config(p)
    except OnsetKitError:
        return
    assert isinstance(config, ExperimentConfig)


corpus_choices = st.one_of(
    st.sampled_from(["/abs/corpus", "/abs/dir with space"]),  # relative ones load resolved
    st.builds(lambda files, seed: CorpusSpec((make_profile("a", "time-keeping", seed),
                                              make_profile("b", "voicing", seed + 1)),
                                             files_per_instrument=files, seed=seed),
              st.integers(2, 4), st.integers(0, 50)),
)


@settings(max_examples=60, deadline=None)
@given(corpus=corpus_choices, epochs=st.integers(1, 100), offset=st.none() | st.floats(0, 60),
       threshold=st.floats(0.01, 0.99), models=st.sampled_from([("tcn_v1",), ("tcn_v1", "tcn_v2")]),
       instruments=st.none() | st.just(("a",)), seed=st.integers(0, 99))
def test_save_config_round_trips(scratch, corpus, epochs, offset, threshold, models,
                                 instruments, seed):
    config = ExperimentConfig(corpus=corpus, base_models={"tcn_v1": "/m/v1.model"},
                              models=models, instruments=instruments,
                              freeze_configs=("ft", "ft_Conv3"), snippet_offset=offset,
                              epochs=epochs, peak_pick=PeakPickParams(threshold=threshold),
                              seed=seed, out_dir="/o")
    p = scratch / "exp.json"
    save_config(config, p)
    assert load_config(p) == config
