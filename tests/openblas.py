"""The OpenBLAS that numpy's wheel bundles: its core and thread count,
read through ctypes, or "unknown" where the library or a symbol is absent."""

import ctypes
from pathlib import Path

import numpy as np


def _bundled_openblas():
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    try:
        return ctypes.CDLL(str(found[0])) if found else None
    except OSError:
        return None


def openblas_config() -> tuple[str, str]:
    """(core name, thread count) of numpy's bundled OpenBLAS, as text."""
    lib = _bundled_openblas()

    def call(symbol, restype):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is None:
            return "unknown"
        fn.restype = restype
        value = fn()
        return value.decode() if isinstance(value, bytes) else str(value)

    return (call("scipy_openblas_get_corename64_", ctypes.c_char_p),
            call("scipy_openblas_get_num_threads64_", ctypes.c_int))
