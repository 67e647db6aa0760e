"""Combinatorial model of compact oriented surfaces with labelled boundary.

A connected surface is a (genus, orientation, boundary-circle sequence)
triple; a surface is an ordered sequence of connected components.  Boundary
circles carry a label and an orientation sign.  Gluing identifies one
positively and one negatively oriented circle per pair and only updates the
genus/boundary bookkeeping: joining circles on the same component adds a
handle, joining circles on different components merges them.  The Euler
characteristic is preserved either way.

Text format (one component per line, blank file = empty surface)::

    component orient=+ genus=1 boundary=[+a,-b]

Labels match ``[A-Za-z0-9_]+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LabelError, OrientationError, ParseError
from .orientation import PLUS, Orientation
from .tensor import (
    LABEL_RE,
    MAX_GENUS,
    genus_over_budget,
    numbered_lines,
    quoted,
    read_decimal,
    signed_labels,
)

Pair = tuple[str, str]


@dataclass(frozen=True)
class BoundaryCircle:
    label: str
    orientation: Orientation

    def reversed(self) -> "BoundaryCircle":
        return BoundaryCircle(self.label, self.orientation.reverse())

    def __str__(self) -> str:
        return f"{self.orientation}{self.label}"


def circle(text: str) -> BoundaryCircle:
    """Build a circle from shorthand like ``"+a"`` or ``"-rim_2"``."""
    found = circles(text)
    if len(found) != 1:
        raise _bad_circle(text.strip())
    return found[0]


def circles(text: str) -> tuple[BoundaryCircle, ...]:
    """Comma-separated :func:`circle` shorthand, e.g. ``"+a,-b"``."""
    return tuple(BoundaryCircle(label, sign)
                 for label, sign in signed_labels(text, _bad_circle))


def _bad_circle(item: str, column: int | None = None) -> LabelError:
    return LabelError(f"bad circle spec {quoted(item)}; expected e.g. '+a'")


@dataclass(frozen=True)
class ConnectedSurface:
    genus: int
    orientation: Orientation
    boundary: tuple[BoundaryCircle, ...] = ()

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - len(self.boundary)

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.boundary)

    def reverse_orientation(self) -> "ConnectedSurface":
        return ConnectedSurface(
            self.genus,
            self.orientation.reverse(),
            tuple(c.reversed() for c in self.boundary),
        )


@dataclass(frozen=True)
class Surface:
    components: tuple[ConnectedSurface, ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Surface":
        return Surface(())

    @staticmethod
    def of(*components: ConnectedSurface) -> "Surface":
        return Surface(tuple(components))

    @staticmethod
    def connected(genus: int, boundary: str | Sequence[BoundaryCircle] = (),
                  orientation: Orientation = PLUS) -> "Surface":
        bnd = circles(boundary) if isinstance(boundary, str) else tuple(boundary)
        return Surface((ConnectedSurface(genus, orientation, bnd),))

    @staticmethod
    def disk(spec: str = "+a", orientation: Orientation = PLUS) -> "Surface":
        return Surface.connected(0, spec, orientation)

    @staticmethod
    def annulus(spec: str = "-a,+b", orientation: Orientation = PLUS) -> "Surface":
        return Surface.connected(0, spec, orientation)

    @staticmethod
    def pants(spec: str = "+a,+b,+c", orientation: Orientation = PLUS) -> "Surface":
        return Surface.connected(0, spec, orientation)

    @staticmethod
    def sphere(orientation: Orientation = PLUS) -> "Surface":
        return Surface.connected(0, (), orientation)

    @staticmethod
    def torus(orientation: Orientation = PLUS) -> "Surface":
        return Surface.connected(1, (), orientation)

    # -- queries -----------------------------------------------------------

    def boundary_circles(self) -> tuple[BoundaryCircle, ...]:
        return tuple(c for comp in self.components for c in comp.boundary)

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.boundary_circles())

    def euler_characteristic(self) -> int:
        return sum(comp.euler_characteristic for comp in self.components)

    def validate(self) -> list[str]:
        """Return every invariant violation (empty list means valid)."""
        violations = []
        seen: set[str] = set()
        for comp in self.components:
            if not isinstance(comp.genus, int):
                violations.append(f"genus {comp.genus!r} is not an integer")
            elif comp.genus < 0:
                violations.append(f"negative genus {comp.genus}")
            for c in comp.boundary:
                if not LABEL_RE.fullmatch(c.label):
                    violations.append(f"bad label {quoted(c.label)}")
                if c.label in seen:
                    violations.append(f"duplicate label {c.label}")
                seen.add(c.label)
        return violations

    def require_valid(self) -> "Surface":
        violations = self.validate()
        if violations:
            raise LabelError("invalid surface: " + "; ".join(violations))
        return self

    # -- operations --------------------------------------------------------

    def disjoint_union(self, other: "Surface") -> "Surface":
        overlap = set(self.labels()) & set(other.labels())
        if overlap:
            raise LabelError(f"label collision in disjoint union: {sorted(overlap)}")
        return Surface(self.components + other.components)

    def reverse_orientation(self) -> "Surface":
        return Surface(tuple(comp.reverse_orientation() for comp in self.components))

    def glue(self, pairs: "GlueSpec | Iterable[Pair]") -> "Surface":
        """Glue the listed circle pairs.

        Every pair must join one + and one - circle, and no label may occur
        in more than one pair.  Each pair merges the one or two components
        holding its circles, less those circles (the earlier component's
        orientation and position are kept, and its circles come first); the
        genus follows from the Euler characteristic, which gluing preserves.
        Each pair rescans the component list, so the cost is quadratic in
        the component count.
        """
        spec = pairs if isinstance(pairs, GlueSpec) else GlueSpec.of(pairs)
        self.require_valid()
        comps = list(self.components)

        def locate(label: str) -> tuple[int, BoundaryCircle]:
            for ci, comp in enumerate(comps):
                for c in comp.boundary:
                    if c.label == label:
                        return ci, c
            raise LabelError(f"unknown label {label}")

        # No label is in two pairs, so earlier gluings leave a pair's circles
        # as they were: checking each pair as it is glued raises the errors a
        # check of all pairs first would, in the same order.
        for a, b in spec.pairs:
            ca_i, ca = locate(a)
            cb_i, cb = locate(b)
            if ca.orientation is cb.orientation:
                raise OrientationError(
                    f"cannot glue {ca} to {cb}: need one + and one - circle")
            first, *rest = sorted({ca_i, cb_i})
            joined = [comps[first]] + [comps.pop(i) for i in rest]
            boundary = tuple(c for comp in joined for c in comp.boundary
                             if c.label not in (a, b))
            euler = sum(comp.euler_characteristic for comp in joined)
            comps[first] = ConnectedSurface(
                (2 - euler - len(boundary)) // 2, joined[0].orientation, boundary)
        return Surface(tuple(comps))

    def __str__(self) -> str:
        return format_surface(self)


@dataclass(frozen=True)
class GlueSpec:
    """An unordered batch of circle pairs to glue simultaneously."""

    pairs: tuple[Pair, ...] = ()

    @staticmethod
    def of(pairs: Iterable[Pair]) -> "GlueSpec":
        return GlueSpec(tuple((str(a), str(b)) for a, b in pairs))

    def __post_init__(self):
        seen: set[str] = set()
        for a, b in self.pairs:
            for lab in (a, b):
                if lab in seen:
                    raise LabelError(f"label {lab} repeated in glue spec")
                seen.add(lab)

    def __str__(self) -> str:
        return ",".join(f"{a}:{b}" for a, b in self.pairs)


def compose_glue(first: GlueSpec, second: GlueSpec) -> GlueSpec:
    """The one-shot spec equivalent to gluing `first` and then `second`.

    `second` may only mention labels that survive `first`, so the two pair
    sets must be disjoint; the composite is their union, and `GlueSpec`
    refuses a label the two share (LabelError).
    """
    return GlueSpec(first.pairs + second.pairs)


# -- text format -----------------------------------------------------------

_COMPONENT_RE = re.compile(
    r"\s*component\s+orient=(?P<orient>[+-])\s+genus=(?P<genus>-?\d+)"
    r"\s+boundary=\[(?P<boundary>[^\]]*)\]\s*"
)


def parse_surface(text: str) -> Surface:
    """Parse the one-component-per-line text format. Rejects duplicate labels."""
    components = []
    for lineno, line in numbered_lines(text):
        m = _COMPONENT_RE.fullmatch(line)
        if not m:
            raise ParseError(
                "expected 'component orient=<+|-> genus=<n> boundary=[...]'",
                line=lineno, column=1)
        genus = _genus(m.group("genus"), lineno)
        start = m.start("boundary") + 1
        boundary = signed_labels(m.group("boundary"), lambda item, column: ParseError(
            f"bad boundary circle {quoted(item)}", line=lineno, column=start + column))
        components.append(ConnectedSurface(genus, Orientation(m.group("orient")), tuple(
            BoundaryCircle(label, sign) for label, sign in boundary)))
    surface = Surface(tuple(components))
    violations = surface.validate()
    if violations:
        raise ParseError("; ".join(violations))
    return surface


def _genus(field: str, lineno: int) -> int:
    """The `genus=` field.  A genus past MAX_GENUS is refused; a negative one
    is left to validate() unless it is too long for int()."""
    magnitude = field.lstrip("-")
    negative = magnitude != field
    genus = read_decimal(magnitude, MAX_GENUS, lambda significant: (
        ParseError(f"negative genus of {len(significant)} digits", line=lineno)
        if negative else genus_over_budget(f"of {len(significant)} digits")))
    if negative:
        return -genus
    if genus > MAX_GENUS:
        raise genus_over_budget(genus)
    return genus


def format_surface(surface: Surface) -> str:
    """Inverse of :func:`parse_surface` (empty surface formats to '')."""
    lines = []
    for comp in surface.components:
        body = ",".join(str(c) for c in comp.boundary)
        lines.append(f"component orient={comp.orientation} genus={comp.genus} boundary=[{body}]")
    return "\n".join(lines)
