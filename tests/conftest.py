"""Shared fixtures: the mapping zoo, and one reprolint analysis of ``src/``.

Most correctness properties (roundtrip, bijectivity, spread consistency)
hold for *every* mapping in the library, so tests parametrize over these
lists.  Factories (not instances) are shared so each test gets fresh state.

A cold reprolint run over ``src/`` takes seconds, so every test that
gates on the whole tree reads the one session run in :func:`src_runs`.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis ships with the dev extra
    pass
else:
    # Bignum-heavy strategies (2**53.. boundary cases) can blow the default
    # 200ms deadline on a slow CI node; these are correctness tests, not
    # perf tests, so disable the deadline rather than flake.
    settings.register_profile("repro", deadline=None)
    settings.load_profile("repro")

from repro.apf.families import (
    ExponentialKappaAPF,
    LinearCopyIndex,
    TBracket,
    TPower,
    TSharp,
    TStar,
)
from repro.apf.radix import RadixConstructedAPF
from repro.core.aspectratio import AspectRatioPairing
from repro.core.diagonal import DiagonalPairing, DiagonalPairingTwin
from repro.core.hyperbolic import HyperbolicPairing
from repro.core.squareshell import SquareShellPairing, SquareShellPairingTwin
from repro.staticcheck import analyze_paths

SRC = Path(__file__).resolve().parent.parent / "src"


def all_pairing_factories():
    """Every bijective PF in the library (name, zero-arg factory)."""
    return [
        ("diagonal", DiagonalPairing),
        ("diagonal-twin", DiagonalPairingTwin),
        ("square-shell", SquareShellPairing),
        ("square-shell-twin", SquareShellPairingTwin),
        ("hyperbolic", HyperbolicPairing),
        ("aspect-1x1", lambda: AspectRatioPairing(1, 1)),
        ("aspect-1x2", lambda: AspectRatioPairing(1, 2)),
        ("aspect-2x3", lambda: AspectRatioPairing(2, 3)),
        ("apf-bracket-1", lambda: TBracket(1)),
        ("apf-bracket-2", lambda: TBracket(2)),
        ("apf-bracket-3", lambda: TBracket(3)),
        ("apf-sharp", TSharp),
        ("apf-star", TStar),
        ("apf-power-2", lambda: TPower(2)),
        ("apf-exponential", ExponentialKappaAPF),
        ("apf-radix3", lambda: RadixConstructedAPF(3, LinearCopyIndex())),
    ]


def apf_factories():
    """Every additive PF (name, factory)."""
    return [
        ("apf-bracket-1", lambda: TBracket(1)),
        ("apf-bracket-2", lambda: TBracket(2)),
        ("apf-bracket-3", lambda: TBracket(3)),
        ("apf-sharp", TSharp),
        ("apf-star", TStar),
        ("apf-power-2", lambda: TPower(2)),
        ("apf-power-3", lambda: TPower(3)),
        ("apf-exponential", ExponentialKappaAPF),
        ("apf-radix3", lambda: RadixConstructedAPF(3, LinearCopyIndex())),
        ("apf-radix5", lambda: RadixConstructedAPF(5, LinearCopyIndex())),
    ]


def pytest_generate_tests(metafunc):
    if "any_pairing" in metafunc.fixturenames:
        pairs = all_pairing_factories()
        metafunc.parametrize(
            "any_pairing",
            [factory for _, factory in pairs],
            ids=[name for name, _ in pairs],
            indirect=True,
        )
    if "any_apf" in metafunc.fixturenames:
        pairs = apf_factories()
        metafunc.parametrize(
            "any_apf",
            [factory for _, factory in pairs],
            ids=[name for name, _ in pairs],
            indirect=True,
        )


@pytest.fixture
def any_pairing(request):
    return request.param()


@pytest.fixture
def any_apf(request):
    return request.param()


@pytest.fixture(scope="session")
def src_runs(tmp_path_factory):
    """``(cold, cold_s, warm, warm_s)``: one cold analysis of ``src/``
    with every rule, filling a fresh cache, then one warm run on that
    cache."""
    cache_path = tmp_path_factory.mktemp("reprolint") / "cache.json"

    def run():
        started = time.perf_counter()
        result = analyze_paths([SRC], cache=True, cache_path=cache_path)
        return result, time.perf_counter() - started

    cold, cold_s = run()
    warm, warm_s = run()
    return cold, cold_s, warm, warm_s
