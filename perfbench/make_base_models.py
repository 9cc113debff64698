"""Pretrain the benchmark's two base models into perfbench/models/.

The `adapt` and `detect` workloads start from these files. The recipe is
the base recipe of acceptance criteria 7 and 8: the default five-instrument
corpus (seed 42, 10 files x 30 s), pretrain seed 0, tcn_v1 for 8 epochs on
the four ordinary instruments (ring_bell held out) and tcn_v2 for 16 epochs
on the two time-keepers. It takes about seven minutes on one core.

Run from the root of the repository:

    python3 perfbench/make_base_models.py
"""

from __future__ import annotations

import shutil
import sys

from common import MODELS, WORK, bootstrap

CORPUS_SEED = 42
PRETRAIN_SEED = 0
RECIPES = {
    # variant: (instruments, epochs)
    "tcn_v1": (("drone_tone", "snap_noise", "clack_mix", "thud_tone"), 8),
    "tcn_v2": (("drone_tone", "ring_bell"), 16),
}


def main() -> int:
    ok = bootstrap()
    corpus = WORK / "base-corpus"
    try:
        ok.generate_corpus(ok.default_corpus_spec(seed=CORPUS_SEED), corpus, force=True)
        MODELS.mkdir(exist_ok=True)
        for variant, (instruments, epochs) in RECIPES.items():
            model, history = ok.pretrain_model(corpus, instruments, variant, epochs=epochs,
                                               seed=PRETRAIN_SEED)
            ok.save_model(model, MODELS / f"{variant}.model")
            print(f"{variant}: loss {history[0]:.4f} -> {history[-1]:.4f}", flush=True)
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
