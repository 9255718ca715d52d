"""Run the library's docstring examples as tests (doc rot protection).

Every module whose doctests are cheap is exercised here; slow searches
(Fueter-Polya) document their examples as literal blocks instead and are
excluded by design.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

DOCTESTED_MODULES = [
    "repro.numbertheory.bits",
    "repro.numbertheory.integers",
    "repro.numbertheory.divisors",
    "repro.numbertheory.divisor_sums",
    "repro.numbertheory.lattice",
    "repro.numbertheory.progressions",
    "repro.numbertheory.valuations",
    "repro.core.diagonal",
    "repro.core.squareshell",
    "repro.core.hyperbolic",
    "repro.core.aspectratio",
    "repro.core.szudzik",
    "repro.core.rosenbergstrong",
    "repro.core.binaryproportional",
    "repro.core.dovetail",
    "repro.core.shells",
    "repro.core.spread",
    "repro.core.registry",
    "repro.core.ndim",
    "repro.core.locality",
    "repro.apf.base",
    "repro.apf.constructor",
    "repro.apf.families",
    "repro.apf.closed_forms",
    "repro.apf.analysis",
    "repro.apf.radix",
    "repro.polynomial.poly2d",
    "repro.polynomial.bijectivity",
    "repro.polynomial.exclusions",
    "repro.arrays.address_space",
    "repro.arrays.extendible",
    "repro.arrays.naive",
    "repro.arrays.hashed",
    "repro.arrays.ndarray",
    "repro.arrays.views",
    "repro.arrays.workloads",
    "repro.webcompute.task",
    "repro.webcompute.volunteer",
    "repro.webcompute.allocator",
    "repro.webcompute.frontend",
    "repro.webcompute.engine",
    "repro.webcompute.codecs",
    "repro.webcompute.replication",
    "repro.perf.spread_cache",
    "repro.perf.batch",
    "repro.encoding.tuples",
    "repro.encoding.strings",
    "repro.render.tables",
]


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False, raise_on_error=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
