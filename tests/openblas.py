"""The OpenBLAS that numpy's wheel bundles: its core and thread count,
read through ctypes, or "unknown" where the library or a symbol is absent,
and a context that sets the thread count."""

import contextlib
import ctypes
from pathlib import Path

import numpy as np
import pytest


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


@contextlib.contextmanager
def blas_threads(n):
    """Run the body with numpy's bundled OpenBLAS on n threads and restore
    the count after it; skips the test, saying why, where the library, its
    getter or its setter is absent, or the count does not take."""
    lib = _bundled_openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None) if lib is not None else None
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None) if lib is not None else None
    if get is None or set_ is None:
        pytest.skip("numpy's bundled OpenBLAS or its scipy_openblas_[gs]et_num_threads64_ "
                    "is absent")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(n)
    try:
        if get() != n:
            pytest.skip(f"OpenBLAS runs {get()} threads after asking for {n}")
        yield
    finally:
        set_(before)
