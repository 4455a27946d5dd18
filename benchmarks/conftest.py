"""Benchmark configuration: make bench_utils importable."""

import os
import sys

import pytest

from repro import experiments

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def loit_sweep():
    """The section 5.1 sweep, run and written once: Figures 6 and 7 read
    the same runs."""
    from bench_utils import SCALE, write_results

    runs = experiments.fig6(SCALE)
    write_results(experiments.render_fig6(runs))
    return runs
