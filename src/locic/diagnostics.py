"""Source positions and diagnostics shared by all compiler passes."""

from __future__ import annotations

from typing import NamedTuple

from .records import record


class Pos(NamedTuple):
    """1-based line/column position. (0, 0) means unknown."""

    line: int
    col: int


UNKNOWN_POS = Pos(0, 0)


@record
class Diagnostic:
    pos: Pos
    message: str
    peer: str | None = None

    def text(self, path: str) -> str:
        where = f"{path}:{self.pos.line}:{self.pos.col}"
        if self.peer is not None:
            return f"{where} [peer={self.peer}] {self.message}"
        return f"{where} {self.message}"

    def to_json(self, path: str) -> dict:
        return {
            "file": path,
            "line": self.pos.line,
            "col": self.pos.col,
            "peer": self.peer,
            "message": self.message,
        }


class SourceError(Exception):
    """A pass failed with one or more diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))
