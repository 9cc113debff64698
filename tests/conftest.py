"""Shared pytest hooks: the test report's header names the BLAS that
numpy runs on, the C library, and the loops numpy dispatches float64 sin
and exp to, since float results may depend on each of them: trained bytes
on the BLAS, synthesized bytes on the sin and exp loops."""

import platform

import numpy as np

from openblas import openblas_config


def _float64_loop(name) -> str:
    """The CPU target numpy dispatches a float64 ufunc to; "unknown" before
    numpy 2.0, which has no introspection for it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name=f"^{name}$", signature="float64")
    return info.get(name, {}).get("dd", {}).get("current", "unknown")


def pytest_report_header(config):
    core, threads = openblas_config()
    libc, libc_version = platform.libc_ver()
    return (f"numpy {np.__version__}, OpenBLAS core {core}, BLAS threads {threads}, "
            f"{libc or 'libc'} {libc_version or 'unknown'}, "
            f"float64 sin {_float64_loop('sin')}, exp {_float64_loop('exp')}")
