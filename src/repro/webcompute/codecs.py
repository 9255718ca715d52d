"""Named index codecs for the sharded service.

A *codec* here is a composer: a bijection ``[S] x N <-> N`` that folds
``(shard_no, local_index)`` into one global task index and back, for
attribution, where ``S`` is the shard count fixed when the server is
built.  :class:`~repro.webcompute.sharding.ShardedWBCServer` takes a
``codec`` *name*, resolved through this registry, which is what the CLI
(``wbc --codec``) and
:class:`~repro.webcompute.simulation.SimulationConfig` plumb through.
A composer's ``unpair`` is the router's one check of a task index: it
raises :class:`~repro.errors.AllocationError` for anything but a positive
int that names one of the ``S`` shards.

The default, ``congruence``, is the paper's Section 3.2.2 dovetailing
with ``S`` fixed: shard ``k`` owns the congruence class ``k - 1 mod S``,
so ``g = S*(local - 1) + shard_no`` and one ``divmod`` inverts it.  The
additive composers of Section 4 were excluded only because their stride
grows with an *unbounded* row count; with ``S`` bounded the constant
stride ``S`` is optimal (``ceil(log2 S)`` bits above the local index) and
total: every positive integer names a real shard.  At ``S = 1`` it is the
identity.

The other names are true pairing functions on all of ``N x N``, resolved
through the core registry and restricted to rows ``1..S``: ``pair`` is the
PF's own, and ``unpair`` refuses a row past ``S``.  Square-shell is the
paper's own composition (Section 3.2.1); it charges about
``max(S, local)**2`` global addresses, while a binary-proportional
composer with ratio ``b`` charges about ``local**2 / b`` once ``local``
dominates.  Injective-only storage mappings are out (``attribute`` must
decode whatever integers clients hand back), and so are the additive PFs,
whose stride grows exponentially in the row coordinate.  The widths are
pinned by ``tests/test_pf_contract.py::TestCodecSwapDifferential``.
"""

from __future__ import annotations

from repro.core.base import PairingFunction
from repro.core.registry import get_pairing
from repro.errors import AllocationError, ConfigurationError, DomainError

__all__ = [
    "DEFAULT_CODEC",
    "BoundedRows",
    "Composer",
    "CongruenceComposer",
    "available_codecs",
    "composer_for",
]

#: The codec ``ShardedWBCServer`` uses when none is named.
DEFAULT_CODEC = "congruence"

#: The allowlisted pairing-function codec names (each resolves through
#: the core registry; every entry is a surjective shell-walking PF with an
#: exact inverse and polynomial growth in both coordinates).
_PF_CODEC_NAMES = (
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


def _bad_index(index: object) -> AllocationError:
    return AllocationError(f"task index must be a positive int, got {index!r}")


class CongruenceComposer:
    """Shard ``k`` owns the residue class ``k - 1 mod S``.

    >>> codec = CongruenceComposer(4)
    >>> [codec.pair(2, local) for local in (1, 2, 3)]
    [2, 6, 10]
    >>> codec.unpair(10)
    (2, 3)
    """

    name = "congruence"

    def __init__(self, shards: int) -> None:
        self.shards = shards

    def pair(self, shard_no: int, local: int) -> int:
        if (
            type(local) is not int
            or local < 1
            or type(shard_no) is not int
            or not 0 < shard_no <= self.shards
        ):
            raise DomainError(
                f"need shard_no in 1..{self.shards} and a positive local index, "
                f"got ({shard_no!r}, {local!r})"
            )
        return self.shards * (local - 1) + shard_no

    def unpair(self, index: int) -> tuple[int, int]:
        if type(index) is not int or index < 1:
            raise _bad_index(index)
        local, shard = divmod(index - 1, self.shards)
        return shard + 1, local + 1


class BoundedRows:
    """A pairing function on ``N x N`` used as a composer over ``S`` rows.

    ``pair`` is the PF's own, so a row past ``S`` still has an address;
    ``unpair`` refuses it, since no such shard exists.
    """

    def __init__(self, pf: PairingFunction, shards: int) -> None:
        self.pf = pf
        self.shards = shards
        self.name = pf.name

    def pair(self, shard_no: int, local: int) -> int:
        return self.pf.pair(shard_no, local)

    def unpair(self, index: int) -> tuple[int, int]:
        if type(index) is not int or index < 1:
            raise _bad_index(index)
        shard_no, local = self.pf.unpair(index)
        if shard_no > self.shards:
            raise AllocationError(
                f"task {index} decodes to shard {shard_no - 1}, "
                f"but only shards 0..{self.shards - 1} exist"
            )
        return shard_no, local


#: What :func:`composer_for` returns.
Composer = CongruenceComposer | BoundedRows


def available_codecs() -> list[str]:
    """The fixed codec names, sorted (any ``binprop-B`` ratio is also
    accepted by :func:`composer_for`)."""
    return sorted((CongruenceComposer.name, *_PF_CODEC_NAMES))


def composer_for(name: str, shards: int) -> Composer:
    """Resolve a codec *name* to a fresh composer over *shards* rows.

    Accepts ``congruence``, the PF allowlist and any parameterized
    ``binprop-B``; anything else -- including registered mappings that
    exist but do not qualify as composers -- raises
    :class:`~repro.errors.ConfigurationError`, as does a shard count that
    is not a positive int.

    >>> composer_for("szudzik", 4).pair(1, 1)
    1
    >>> composer_for("binprop-8", 4).name
    'binprop-8'
    >>> composer_for("congruence", 1).unpair(7)
    (1, 7)
    """
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        raise ConfigurationError(f"shards must be a positive int, got {shards!r}")
    if name == CongruenceComposer.name:
        return CongruenceComposer(shards)
    if name not in _PF_CODEC_NAMES and not name.startswith("binprop-"):
        raise ConfigurationError(
            f"unknown index codec {name!r}; known: {', '.join(available_codecs())} "
            "plus parameterized binprop-B"
        )
    pf = get_pairing(name)
    if not isinstance(pf, PairingFunction) or not pf.surjective:
        raise ConfigurationError(
            f"codec {name!r} is not a surjective pairing function"
        )  # pragma: no cover - allowlist guards this
    return BoundedRows(pf, shards)
