"""Two-valued orientation signs shared by surfaces and tensor indices."""

from __future__ import annotations

import enum


class Orientation(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def reverse(self) -> "Orientation":
        return Orientation.MINUS if self is Orientation.PLUS else Orientation.PLUS

    def __str__(self) -> str:
        return self.value


PLUS = Orientation.PLUS
MINUS = Orientation.MINUS
