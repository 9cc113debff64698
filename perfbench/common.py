"""Process set-up shared by the benchmark's entry points.

`bootstrap()` must run before numpy is imported: it pins the BLAS thread
pools to one thread and puts the checkout's own `src/` first on the import
path, so the benchmark always measures the source tree it sits in and never
an installed copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"  # scratch inputs of a run, removed when it ends
OUT = ROOT / ".perfbench-out"  # trace files, kept
MODELS = Path(__file__).resolve().parent / "models"  # committed base models

BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no source tree, missing inputs)."""


def bootstrap():
    """Pin BLAS threads, import onsetkit from ROOT/src and return it."""
    if "numpy" in sys.modules:
        raise SetupError("bootstrap() must run before numpy is imported")
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "onsetkit" / "__init__.py").is_file():
        raise SetupError(f"no onsetkit source tree under {src}")
    sys.path.insert(0, str(src))
    import onsetkit

    if Path(onsetkit.__file__).resolve().parent != (src / "onsetkit").resolve():
        raise SetupError(f"imported onsetkit from {onsetkit.__file__}, not from {src}")
    return onsetkit
