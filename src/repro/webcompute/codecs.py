"""Named PF-backed index codecs for the sharded service.

A *codec* here is a composer: a true
:class:`~repro.core.base.PairingFunction` that folds
``(shard_no, local_index)`` into one global task index (and back, for
attribution).  :class:`~repro.webcompute.sharding.ShardedWBCServer`
takes a ``codec`` *name*, resolved through this registry, which is what
the CLI (``wbc --codec``) and
:class:`~repro.webcompute.simulation.SimulationConfig` plumb through.

Not every registered mapping qualifies: a composer must be a bijection
(``attribute`` must be total on whatever integers clients hand back, so
injective-only storage mappings are out), and the additive PFs are out
too -- their whole design charges exponential stride growth against the
*row* coordinate, which here is the shard number.  The registry is
therefore an explicit allowlist over the shell-walking families, plus
the parameterized ``binprop-B`` ratios resolved through the core
registry.

The interesting tradeoff (pinned by
``tests/test_pf_contract.py::TestCodecSwapDifferential``): square
shells charge ``~max(S, local)**2`` global addresses, while a
binary-proportional composer with ratio ``b`` charges ``~local**2 / b``
once ``local`` dominates -- ``log2(b)`` bits of index width won back for
the common few-shards/many-tasks workload.
"""

from __future__ import annotations

from repro.core.base import PairingFunction
from repro.core.registry import get_pairing
from repro.errors import ConfigurationError

__all__ = ["DEFAULT_CODEC", "available_codecs", "composer_for"]

#: The codec ``ShardedWBCServer`` uses when none is named: the paper's
#: own square-shell composition, bit-identical to the pre-codec server.
DEFAULT_CODEC = "square-shell"

#: The allowlisted fixed codec names (each resolves through the core
#: registry; every entry is a surjective shell-walking PF with an exact
#: inverse and polynomial growth in both coordinates).
_CODEC_NAMES = (
    "square-shell",
    "square-shell-twin",
    "diagonal",
    "diagonal-twin",
    "szudzik",
    "rosenberg-strong",
    "binprop-2",
    "binprop-4",
    "binprop-16",
)


def available_codecs() -> list[str]:
    """The fixed codec names, sorted (any ``binprop-B`` ratio is also
    accepted by :func:`composer_for`)."""
    return sorted(_CODEC_NAMES)


def composer_for(name: str) -> PairingFunction:
    """Resolve a codec *name* to a fresh composer instance.

    Accepts the fixed allowlist plus any parameterized ``binprop-B``;
    anything else -- including registered mappings that exist but do not
    qualify as composers -- raises
    :class:`~repro.errors.ConfigurationError`.

    >>> composer_for("szudzik").pair(1, 1)
    1
    >>> composer_for("binprop-8").name
    'binprop-8'
    """
    if name not in _CODEC_NAMES and not name.startswith("binprop-"):
        raise ConfigurationError(
            f"unknown index codec {name!r}; known: {', '.join(available_codecs())} "
            "plus parameterized binprop-B"
        )
    composer = get_pairing(name)
    if not isinstance(composer, PairingFunction) or not composer.surjective:
        raise ConfigurationError(
            f"codec {name!r} is not a surjective pairing function"
        )  # pragma: no cover - allowlist guards this
    return composer
