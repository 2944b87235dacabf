"""Stable identities used for dispatch and connection setup.

Signatures are pure functions of source names: recompiling identical source
yields identical signatures. They are tuples, so hashing, equality and
ordering run in C; no dict or set mixes kinds of signature.
"""

from __future__ import annotations

from typing import NamedTuple


class ModuleSig(NamedTuple):
    name: str
    path: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ".".join(self.path + (self.name,)) if self.path else self.name


class PeerSig(NamedTuple):
    peer_name: str
    module: ModuleSig

    def __str__(self) -> str:
        return f"{self.peer_name}@{self.module}"


class ValueSig(NamedTuple):
    canonical: str  # "name:Type", e.g. "i:Int"
    module: ModuleSig

    def __str__(self) -> str:
        return f"{self.canonical}@{self.module}"
