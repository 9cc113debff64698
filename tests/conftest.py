"""Shared pytest hooks: the test report's header names the BLAS that
numpy runs on, since float results may depend on it."""

import numpy as np

from openblas import openblas_config


def pytest_report_header(config):
    core, threads = openblas_config()
    return f"numpy {np.__version__}, OpenBLAS core {core}, BLAS threads {threads}"
