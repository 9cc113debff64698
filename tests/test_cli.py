import inspect
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from onsetkit.audio import OnsetAnnotations, load_audio, save_annotations
from onsetkit.cli import main
from onsetkit.errors import DivergenceError
from onsetkit.evaluate import DEFAULT_TOLERANCE, PeakPickParams
from onsetkit.models import DROPOUT_RATE, FreezeConfig, build_model, save_model
from onsetkit.synth import default_corpus_spec, load_manifest
from onsetkit.training import BASE_LR, FinetuneConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    code = main(["synth", "--out", str(root), "--files", "2", "--duration", "5",
                 "--seed", "3"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("climodel") / "v1.model"
    save_model(build_model("tcn_v1", seed=0), path)
    return path


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["eval"]) == 1
    assert main(["synth", "--out", "x", "--no-such-flag"]) == 1
    assert main(["grid", "--config", "x", "--threads", "0"]) == 1
    assert main(["synth", "--out", "x", "--threads", "-3"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and err.count("--threads: must be >= 1") == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["detect", "--help"]) == 0


def test_eval_identical_files(tmp_path, capsys):
    ann = OnsetAnnotations(np.array([0.5, 1.0, 2.25]))
    save_annotations(ann, tmp_path / "ref.onsets")
    assert main(["eval", str(tmp_path / "ref.onsets"), str(tmp_path / "ref.onsets"),
                 "--tolerance", "0.025"]) == 0
    assert capsys.readouterr().out.strip() == "P=1.000 R=1.000 F1=1.000"


def test_eval_respects_tolerance(tmp_path, capsys):
    save_annotations(OnsetAnnotations(np.array([1.0, 2.0])), tmp_path / "ref.onsets")
    save_annotations(OnsetAnnotations(np.array([1.02, 2.02])), tmp_path / "est.onsets")
    main(["eval", str(tmp_path / "est.onsets"), str(tmp_path / "ref.onsets")])
    assert "F1=1.000" in capsys.readouterr().out
    main(["eval", str(tmp_path / "est.onsets"), str(tmp_path / "ref.onsets"),
          "--tolerance", "0.01"])
    assert "F1=0.000" in capsys.readouterr().out


def test_eval_missing_file_is_data_error(tmp_path, capsys):
    save_annotations(OnsetAnnotations(np.array([1.0])), tmp_path / "ref.onsets")
    assert main(["eval", str(tmp_path / "absent.onsets"), str(tmp_path / "ref.onsets")]) == 2
    assert "error" in capsys.readouterr().err


def test_synth_refuses_overwrite(corpus, capsys):
    assert main(["synth", "--out", str(corpus), "--files", "2", "--duration", "5"]) == 2
    assert "force" in capsys.readouterr().err
    assert main(["synth", "--out", str(corpus), "--files", "2", "--duration", "5",
                 "--seed", "3", "--force"]) == 0


def test_synth_corpus_config(tmp_path):
    spec = {"instruments": [{"name": "solo", "role": "voicing", "profile_seed": 2}],
            "files_per_instrument": 2, "file_duration": 5.0, "tempo": 170.0, "seed": 1}
    (tmp_path / "corpus.json").write_text(json.dumps(spec))
    assert main(["synth", "--out", str(tmp_path / "c"), "--config",
                 str(tmp_path / "corpus.json")]) == 0
    assert (tmp_path / "c" / "solo_01.wav").exists()
    assert (tmp_path / "c" / "solo_02.wav").exists()
    # explicit flags override the spec's fields
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(tmp_path / "corpus.json"),
                 "--files", "3", "--duration", "6", "--tempo", "165", "--seed", "4"]) == 0
    meta, pairs = load_manifest(tmp_path / "d" / "manifest.txt")
    assert [meta[k] for k in ("files_per_instrument", "file_duration", "tempo", "seed")] == [
        3, 6.0, 165.0, 4]
    assert [p.wav.name for p in pairs] == ["solo_01.wav", "solo_02.wav", "solo_03.wav"]
    assert len(load_audio(pairs[2].wav).samples) == 6 * 44100


@pytest.mark.parametrize("key, value", [("files_per_instrument", 2.5), ("seed", 1.5)])
def test_synth_config_mistyped_integer_exits_1(tmp_path, capsys, key, value):
    spec = {"instruments": [{"name": "solo", "role": "voicing", "profile_seed": 2}],
            "files_per_instrument": 2, "file_duration": 5.0, "tempo": 170.0, "seed": 1, key: value}
    (tmp_path / "corpus.json").write_text(json.dumps(spec))
    assert main(["synth", "--out", str(tmp_path / "c"), "--config",
                 str(tmp_path / "corpus.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("text", ["5", '"x"', "null"])
def test_synth_config_not_an_object_exits_1(tmp_path, capsys, text):
    (tmp_path / "corpus.json").write_text(text)
    assert main(["synth", "--out", str(tmp_path / "c"), "--config",
                 str(tmp_path / "corpus.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "JSON object" in err[0], err
    assert not (tmp_path / "c").exists()


def test_synth_config_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "corpus.json").write_bytes(b'{"seed": "caf\xe9"}')
    assert main(["synth", "--out", str(tmp_path / "c"), "--config",
                 str(tmp_path / "corpus.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0], err


def test_finetune_non_utf8_manifest_exits_2(model_file, tmp_path, capsys):
    (tmp_path / "manifest.txt").write_bytes(b"onsetkit-corpus 1\ninstruments caf\xe9\n")
    assert main(["finetune", str(model_file), str(tmp_path), "ring_bell",
                 "--out", str(tmp_path / "adapted.model")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0], err


def test_grid_non_utf8_config_exits_2(tmp_path, capsys):
    (tmp_path / "exp.json").write_bytes(b'{"corpus": "caf\xe9"}')
    assert main(["grid", "--config", str(tmp_path / "exp.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0], err


def test_features_command(corpus, tmp_path, capsys):
    wav = next(corpus.glob("*.wav"))
    out = tmp_path / "f.npz"
    assert main(["features", str(wav), "--out", str(out)]) == 0
    data = np.load(out)
    assert data["values"].shape == (500, 81)
    assert int(data["frame_rate"]) == 100
    # the printed path is the file written, with or without an .npz suffix
    bare = tmp_path / "feats"
    assert main(["features", str(wav), "--out", str(bare)]) == 0
    assert capsys.readouterr().out.strip().endswith(f"-> {bare}")
    assert np.load(bare)["values"].tobytes() == data["values"].tobytes()
    assert not (tmp_path / "feats.npz").exists()


def test_detect_then_eval_runs(corpus, model_file, tmp_path, capsys):
    wav = str(corpus / "drone_tone_02.wav")
    est = tmp_path / "est.onsets"
    assert main(["detect", str(model_file), wav, "--out", str(est)]) == 0
    assert est.exists()
    assert main(["eval", str(est), str(corpus / "drone_tone_02.onsets")]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("P=") and "F1=" in last


def test_detect_malformed_model_exits_2(corpus, model_file, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(model_file.read_bytes().replace(b"variant tcn_v1\n", b"", 1))
    assert main(["detect", str(bad), str(corpus / "drone_tone_02.wav")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: header has no variant line"]


@pytest.mark.parametrize("old, new", [(b"seed 0\n", b"seed -1\n"),
                                      (b"dropout 0.1", b"dropout nan"),
                                      (b"dropout 0.1", b"dropout 2.0")],
                         ids=["seed-negative", "dropout-nan", "dropout-2"])
def test_detect_model_with_bad_seed_or_dropout_exits_2(corpus, model_file, tmp_path, capsys,
                                                       old, new):
    bad = tmp_path / "bad.model"
    bad.write_bytes(model_file.read_bytes().replace(old, new, 1))
    assert main(["detect", str(bad), str(corpus / "drone_tone_02.wav")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_detect_wav_with_partial_trailing_sample(corpus, model_file, tmp_path, capsys):
    # a 16-bit data chunk with an odd byte count: the partial sample is dropped
    wav = corpus / "drone_tone_02.wav"
    raw = wav.read_bytes() + b"\x01"
    data_at = raw.index(b"data")
    (size,) = struct.unpack_from("<I", raw, data_at + 4)
    raw = raw[: data_at + 4] + struct.pack("<I", size + 1) + raw[data_at + 8 :]
    odd = tmp_path / "odd.wav"
    odd.write_bytes(raw[:4] + struct.pack("<I", len(raw) - 8) + raw[8:])
    assert main(["detect", str(model_file), str(wav), "--out", str(tmp_path / "a.onsets")]) == 0
    assert main(["detect", str(model_file), str(odd), "--out", str(tmp_path / "b.onsets")]) == 0
    assert (tmp_path / "a.onsets").read_bytes() == (tmp_path / "b.onsets").read_bytes()
    assert capsys.readouterr().err == ""


def test_detect_48khz_wav_exits_2(corpus, model_file, tmp_path, capsys):
    # the same samples declared at 48 kHz: no command resamples, so the
    # file must be converted to 44.1 kHz first
    raw = (corpus / "drone_tone_02.wav").read_bytes()
    fmt = raw.index(b"fmt ") + 8
    raw = raw[: fmt + 4] + struct.pack("<II", 48000, 48000 * 2) + raw[fmt + 12 :]
    wav = tmp_path / "48k.wav"
    wav.write_bytes(raw)
    assert main(["detect", str(model_file), str(wav), "--out", str(tmp_path / "a.onsets")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "48000 Hz" in err[0] and "44.1 kHz" in err[0], err
    assert "resample" not in err[0]


def test_eval_non_utf8_annotations_exits_2(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.onsets"
    bad.write_bytes(b"0.5\n\xff\xfe1.0\n")
    assert main(["eval", str(bad), str(corpus / "drone_tone_02.onsets")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0]


def test_pretrain_finetune_cli(corpus, tmp_path):
    base = tmp_path / "base.model"
    assert main(["pretrain", str(corpus), "--out", str(base), "--variant", "tcn_v1",
                 "--instruments", "snap_noise", "--epochs", "1", "--seed", "0"]) == 0
    assert base.exists()
    adapted = tmp_path / "adapted.model"
    assert main(["finetune", str(base), str(corpus), "ring_bell", "--out", str(adapted),
                 "--freeze", "ft_Conv3", "--epochs", "1", "--seed", "0"]) == 0
    assert adapted.exists()
    # bad freeze id is a usage error
    assert main(["finetune", str(base), str(corpus), "ring_bell", "--out", str(adapted),
                 "--freeze", "ft_Out", "--epochs", "1"]) == 1


def test_grid_and_report_cli(corpus, model_file, tmp_path, capsys):
    config = {
        "corpus": str(corpus),
        "base_models": {"tcn_v1": str(model_file)},
        "models": ["tcn_v1"],
        "instruments": ["drone_tone", "snap_noise"],
        "freeze_configs": ["ft", "ft_Conv3"],
        "epochs": 1,
        "out_dir": str(tmp_path / "results"),
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    assert main(["grid", "--config", str(tmp_path / "exp.json")]) == 0
    csv_path = tmp_path / "results" / "results.csv"
    assert csv_path.exists()
    assert (tmp_path / "results" / "summary.md").exists()
    assert (tmp_path / "results" / "config.json").exists()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 + 4  # format comment + header + 4 rows
    assert main(["report", str(csv_path), "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "summary.md").exists()


@pytest.mark.parametrize("peak_pick", [{"bogus": 1}, [0.5], "strict"])
def test_grid_bad_peak_pick_exits_1(corpus, model_file, tmp_path, capsys, peak_pick):
    config = {"corpus": str(corpus), "base_models": {"tcn_v1": str(model_file)},
              "models": ["tcn_v1"], "peak_pick": peak_pick,
              "out_dir": str(tmp_path / "results")}
    (tmp_path / "exp.json").write_text(json.dumps(config))
    assert main(["grid", "--config", str(tmp_path / "exp.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "peak_pick" in err[0]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key, value", [("corpus", 5), ("base_models", []),
                                        ("freeze_configs", [1]), ("instruments", 7)])
def test_grid_mistyped_config_exits_1(corpus, model_file, tmp_path, capsys, key, value):
    config = {"corpus": str(corpus), "base_models": {"tcn_v1": str(model_file)},
              "models": ["tcn_v1"], "out_dir": str(tmp_path / "results"), key: value}
    (tmp_path / "exp.json").write_text(json.dumps(config))
    assert main(["grid", "--config", str(tmp_path / "exp.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("cell", ["5", '"[[1]]"',
                                  pytest.param("9" * 131_073, id="over-csv-field-limit")])
def test_report_malformed_results_exits_2(tmp_path, capsys, cell):
    results = tmp_path / "results.csv"
    results.write_text("# results-format: 1\n"
                       "model,instrument,freeze_id,mean_f1,baseline_f1,delta_pp,n_files,seed,"
                       f"wall_s,per_file_f1\ntcn_v1,a,ft,0.5,0.5,0.0,1,0,0.1,{cell}\n")
    assert main(["report", str(results), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [["grid", "--config", "{deep}"],
                                  ["synth", "--out", "{out}", "--config", "{deep}"],
                                  ["report", "{results}", "--out", "{out}"]],
                         ids=["grid-config", "synth-config", "report-per-file-f1"])
def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, argv):
    deep = "[" * 5000 + "]" * 5000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "results.csv").write_text(
        "# results-format: 1\nmodel,instrument,freeze_id,mean_f1,baseline_f1,delta_pp,n_files,"
        f"seed,wall_s,per_file_f1\ntcn_v1,a,ft,0.5,0.5,0.0,1,0,0.1,{deep}\n")
    paths = {"deep": tmp_path / "deep.json", "results": tmp_path / "results.csv",
             "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    (["detect", "{long_model}", "{wav}"], 2),
    (["eval", "{long_onsets}", "{long_onsets}"], 2),
    (["grid", "--config", "{long_variant}"], 1),
    (["grid", "--config", "{long_models}"], 1),
    (["report", "{long_cell}", "--out", "{out}"], 2),
    (["finetune", "{model}", "{long_roster}", "a", "--out", "{out}"], 2),
    (["finetune", "{model}", "{corpus}", "ring_bell", "--out", "{out}",
      "--freeze", "ft_{long}"], 1),
    (["finetune", "{model}", "{corpus}", "{long}", "--out", "{out}"], 1),
    (["pretrain", "{corpus}", "--out", "{out}", "--instruments", "{long}"], 1),
    (["pretrain", "{corpus}", "--out", "{out}", "--instruments", "a,a,{long}"], 1),
    (["grid", "--config", "{long_repeated_freeze}"], 1),
    (["synth", "--out", "{out}", "--config", "{long_role}"], 1),
], ids=["detect-model-without-newline", "eval-long-line", "grid-long-variant",
        "grid-long-models-string", "report-long-per-file-f1", "finetune-long-instrument-name",
        "finetune-long-freeze-id", "finetune-long-instrument", "pretrain-long-instrument",
        "pretrain-repeated-instrument", "grid-repeated-freeze-id", "synth-long-role"])
def test_long_input_is_not_echoed_in_full(corpus, model_file, tmp_path, capsys, argv, code):
    """An error quotes at most a bounded excerpt of the input it rejects."""
    long = "x" * 50_000
    (tmp_path / "long.model").write_bytes(long.encode())
    (tmp_path / "long.onsets").write_text(long + "\n")
    grid = {"corpus": str(corpus), "base_models": {"tcn_v1": str(model_file)},
            "out_dir": str(tmp_path / "out")}
    (tmp_path / "variant.json").write_text(json.dumps({**grid, "models": [long]}))
    (tmp_path / "models.json").write_text(json.dumps({**grid, "models": long}))
    (tmp_path / "freeze.json").write_text(json.dumps(
        {**grid, "models": ["tcn_v1"], "freeze_configs": ["ft", "ft", f"ft_{long}"]}))
    (tmp_path / "results.csv").write_text(
        "# results-format: 1\nmodel,instrument,freeze_id,mean_f1,baseline_f1,delta_pp,n_files,"
        f"seed,wall_s,per_file_f1\ntcn_v1,a,ft,0.5,0.5,0.0,1,0,0.1,\"\"\"{long}\"\"\"\n")
    (tmp_path / "roster").mkdir()
    (tmp_path / "roster" / "manifest.txt").write_text(
        f"onsetkit-corpus 1\nseed 1\ntempo 180\nfile_duration 5\nfiles_per_instrument 2\n"
        f"instruments a,{long}.\n")
    (tmp_path / "role.json").write_text(json.dumps(
        {"instruments": [{"name": "solo", "role": long, "profile_seed": 1}]}))
    paths = {"long_model": tmp_path / "long.model", "wav": corpus / "drone_tone_02.wav",
             "long_onsets": tmp_path / "long.onsets", "long_variant": tmp_path / "variant.json",
             "long_models": tmp_path / "models.json", "long_cell": tmp_path / "results.csv",
             "model": model_file, "long_roster": tmp_path / "roster", "out": tmp_path / "out",
             "corpus": corpus, "long": long, "long_role": tmp_path / "role.json",
             "long_repeated_freeze": tmp_path / "freeze.json"}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and len(err[0]) < 200, err[0][:300]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["pretrain", "c", "--out", "o", "--variant", "{long}"],
                                  ["detect", "m", "a.wav", "--threshold", "{long}"]],
                         ids=["invalid-choice", "invalid-float"])
def test_rejected_option_value_is_not_echoed_in_full(capsys, argv):
    """argparse quotes the value it rejects; the error line keeps a bounded excerpt."""
    assert main([arg.format(long="x" * 50_000) for arg in argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith(f"usage: onsetkit {argv[0]} ")
    assert err[-1].startswith(f"onsetkit {argv[0]}: error: argument {argv[-2]}: ")
    assert len(err[-1]) < 200, err[-1][:300]


def test_divergence_maps_to_exit_3(monkeypatch, corpus, model_file, tmp_path, capsys):
    import onsetkit.cli as cli

    def explode(*a, **kw):
        raise DivergenceError(4)

    monkeypatch.setattr(cli, "finetune", explode)
    code = main(["finetune", str(model_file), str(corpus), "ring_bell",
                 "--out", str(tmp_path / "x.model"), "--epochs", "1"])
    assert code == 3
    assert "epoch 4" in capsys.readouterr().err


def test_omitted_options_take_the_library_defaults(corpus, model_file, tmp_path, monkeypatch):
    """Run with only its required arguments, each command hands the library
    its own defaults; the command line restates none of them."""
    import onsetkit.cli as cli
    calls = {}

    def spy(name, stub=None):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name] = bound.arguments
            return real(*args, **kwargs) if stub is None else stub(bound.arguments)
        monkeypatch.setattr(cli, name, call)

    spy("generate_corpus", lambda a: Path(a["out_dir"]) / "manifest.txt")
    spy("pretrain_model", lambda a: (build_model(a["variant"], seed=0), [1.0]))
    spy("finetune", lambda a: a["model"])
    spy("peak_pick")
    spy("match_onsets")
    wav, onsets = corpus / "drone_tone_02.wav", corpus / "drone_tone_02.onsets"
    for argv in (["synth", "--out", str(tmp_path / "c")],
                 ["pretrain", str(corpus), "--out", str(tmp_path / "p.model")],
                 ["finetune", str(model_file), str(corpus), "ring_bell",
                  "--out", str(tmp_path / "f.model")],
                 ["detect", str(model_file), str(wav), "--out", str(tmp_path / "est.onsets")],
                 ["eval", str(onsets), str(onsets)]):
        assert main(argv) == 0, argv
    assert calls["generate_corpus"]["spec"] == default_corpus_spec()
    pretrain = calls["pretrain_model"]
    assert [pretrain[k] for k in ("epochs", "seed", "base_lr", "dropout_rate")] == [
        20, 0, BASE_LR, DROPOUT_RATE]  # 20 epochs is the command line's own default
    assert calls["finetune"]["config"] == FinetuneConfig(FreezeConfig.from_id("ft"), seed=0)
    assert calls["peak_pick"]["params"] == PeakPickParams()
    assert calls["match_onsets"]["tolerance"] == DEFAULT_TOLERANCE


@pytest.mark.parametrize("argv, code", [
    (["detect", "{model}", "{wav}", "--out", "{out}", "--min-gap", "nan"], 1),
    (["detect", "{model}", "{wav}", "--out", "{out}", "--min-gap", "inf"], 1),
    (["detect", "{model}", "{wav}", "--out", "{out}", "--delta", "nan"], 1),
    (["synth", "--out", "{out}", "--duration", "nan"], 1),
    (["synth", "--out", "{out}", "--duration", "inf"], 1),
    (["eval", "{onsets}", "{onsets}", "--tolerance", "nan"], 1),
    (["eval", "{onsets}", "{onsets}", "--tolerance", "-1"], 1),
    (["eval", "{inf_onsets}", "{onsets}"], 2),
    (["grid", "--config", "{nan_grid}"], 1),
    (["grid", "--config", "{dup_grid}"], 1),
    (["finetune", "{model}", "{corpus}", "ring_bell", "--out", "{out}", "--lr", "-1"], 1),
    (["finetune", "{model}", "{corpus}", "ring_bell", "--out", "{out}", "--epochs", "1",
      "--lr", "nan"], 1),
    (["pretrain", "{corpus}", "--out", "{out}", "--epochs", "0"], 1),
    *[(["pretrain", "{corpus}", "--out", "{out}", "--epochs", "1", "--lr", lr], 1)
      for lr in ("-1", "0", "nan", "inf")],
    *[(["pretrain", "{corpus}", "--out", "{out}", "--epochs", "1", "--dropout", rate], 1)
      for rate in ("1", "nan")],
    *[(["finetune", "{model}", "{corpus}", "ring_bell", "--out", "{out}", "--epochs", "1",
        "--offset", offset], 1) for offset in ("-1", "nan")],
    (["pretrain", "{corpus}", "--out", "{out}", "--epochs", "1", "--seed", "-1"], 1),
    (["finetune", "{model}", "{corpus}", "ring_bell", "--out", "{out}", "--epochs", "1",
      "--seed", "-1"], 1),
    (["pretrain", "{corpus}", "--out", "{out}", "--epochs", "1",
      "--instruments", "drone_tone,drone_tone"], 1),
], ids=["detect-min-gap-nan", "detect-min-gap-inf", "detect-delta-nan", "synth-duration-nan",
        "synth-duration-inf", "eval-tolerance-nan", "eval-tolerance-negative",
        "eval-inf-onset", "grid-tolerance-nan", "grid-duplicate-freeze", "finetune-lr-negative",
        "finetune-lr-nan", "pretrain-epochs-0", "pretrain-lr-negative", "pretrain-lr-0",
        "pretrain-lr-nan", "pretrain-lr-inf", "pretrain-dropout-1", "pretrain-dropout-nan",
        "finetune-offset-negative", "finetune-offset-nan", "pretrain-seed-negative",
        "finetune-seed-negative", "pretrain-instruments-repeated"])
def test_out_of_range_values_exit_with_one_error_line(corpus, model_file, tmp_path, capsys,
                                                      argv, code):
    """1 for a config value, 2 for a data file; nothing is written."""
    (tmp_path / "inf.onsets").write_text("0.5\ninf\n")
    grid = {"corpus": str(corpus), "base_models": {"tcn_v1": str(model_file)},
            "models": ["tcn_v1"], "out_dir": str(tmp_path / "out")}
    # json.dumps writes NaN, which json.loads reads back
    (tmp_path / "grid.json").write_text(json.dumps({**grid, "tolerance": float("nan")}))
    (tmp_path / "dup.json").write_text(json.dumps({**grid, "freeze_configs": ["ft", "ft"]}))
    paths = {"model": model_file, "wav": corpus / "drone_tone_02.wav", "corpus": corpus,
             "onsets": corpus / "drone_tone_02.onsets", "inf_onsets": tmp_path / "inf.onsets",
             "nan_grid": tmp_path / "grid.json", "dup_grid": tmp_path / "dup.json",
             "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
