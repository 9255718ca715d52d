"""repro: pairing functions for extendible-array storage and accountable
web computing.

A production-grade reproduction of Arnold L. Rosenberg, *Efficient Pairing
Functions -- and Why You Should Care* (IPPS/WPDRTS 2002).

A *pairing function* (PF) is a bijection ``N x N <-> N`` over the positive
integers.  This library implements the paper's entire cast:

* the closed-form PFs -- diagonal (Cantor), square-shell, hyperbolic,
  fixed-aspect-ratio -- plus the dovetail combinator and the generic shell
  constructor (:mod:`repro.core`);
* the additive PFs of Section 4 and Procedure APF-Constructor
  (:mod:`repro.apf`);
* the polynomial-PF impossibility toolkit of Section 2
  (:mod:`repro.polynomial`);
* the two application substrates the paper motivates: extendible arrays
  over an instrumented address space (:mod:`repro.arrays`) and an
  accountable web-computing server + simulation (:mod:`repro.webcompute`);
* figure regeneration and a CLI (:mod:`repro.render`, :mod:`repro.cli`).

Quick start::

    from repro import get_pairing

    d = get_pairing("diagonal")
    assert d.pair(3, 2) == 8
    assert d.unpair(8) == (3, 2)

See README.md for the full tour and EXPERIMENTS.md for the paper-vs-
measured record.
"""

from __future__ import annotations

from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    DomainError,
    NotInImageError,
    ReproError,
)
from repro.core import (
    AspectRatioPairing,
    BinaryProportionalPairing,
    DiagonalPairing,
    DiagonalPairingTwin,
    DovetailMapping,
    HyperbolicPairing,
    PairingFunction,
    RosenbergStrongPairing,
    ShellConstructedPairing,
    ShellOrder,
    SquareShellPairing,
    SquareShellPairingTwin,
    StorageMapping,
    SzudzikElegantPairing,
    available_names,
    get_pairing,
)
from repro.apf import (
    AdditivePairingFunction,
    ConstructedAPF,
    TBracket,
    TSharp,
    TStar,
    TPower,
)
from repro.core.ndim import IteratedPairing
from repro.encoding import StringCodec, TupleCodec
from repro.perf import SpreadCache, spread_many

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DomainError",
    "NotInImageError",
    "ConfigurationError",
    "CapacityError",
    "AllocationError",
    # core
    "PairingFunction",
    "StorageMapping",
    "DiagonalPairing",
    "DiagonalPairingTwin",
    "SquareShellPairing",
    "SquareShellPairingTwin",
    "HyperbolicPairing",
    "AspectRatioPairing",
    "SzudzikElegantPairing",
    "RosenbergStrongPairing",
    "BinaryProportionalPairing",
    "DovetailMapping",
    "ShellConstructedPairing",
    "ShellOrder",
    "available_names",
    "get_pairing",
    # apf
    "AdditivePairingFunction",
    "ConstructedAPF",
    "TBracket",
    "TSharp",
    "TStar",
    "TPower",
    "IteratedPairing",
    "TupleCodec",
    "StringCodec",
    # perf
    "SpreadCache",
    "spread_many",
]
