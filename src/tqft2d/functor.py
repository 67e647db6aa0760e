"""Assigning tensors to surfaces, and the verification suites.

A connected genus-g surface with n boundary circles (2g-2+n >= 1) is cut
into 2g-2+n pairs-of-pants along 3g-3+n internal circles; each pants node
receives a copy of the rank-3 generator, internal circles are contracted
away via the Kronecker pairing, and one index per boundary circle survives,
carrying that circle's label and orientation sign.  The sphere, disk,
annulus and torus have no pants decomposition; each is a fixed network of
d and p nodes instead.  Components multiply via the tensor product.
The contraction planner is greedy (smallest intermediate rank first) and
plans a network of P pants in O(P log P).

A component with at least one boundary circle, on rational data whose
stored relation report passed, is not cut at all: such data are a
commutative Frobenius algebra, and its tensor is a short product of the
algebra's matrices, the normal form.  The choice only reads the stored
report; `invariant` computes it when it requires the relations, its
default.  Closed components, complex data, data failing the relations and
data never checked are cut into pants, and the pants network is the oracle
the tests hold the normal form to.

Every cut surface is cut one way, the `chain`: a caterpillar with boundary
legs hanging off the front of a linear spine and handles as self-paired legs
at the end.  Regrouping moves, singly or from a seeded rewrite generator,
regroup the four legs around a circle joining two pants.  The verification
suites check that the invariant does not depend on the decomposition, that
gluing surfaces matches contracting tensors, that two-stage gluings compose,
and that disjoint union matches tensor product.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DimensionError, LabelError, RelationError, TqftError
from .orientation import MINUS, PLUS
from .surface import (
    LABEL_RE,
    BoundaryCircle,
    ConnectedSurface,
    GlueSpec,
    Surface,
    compose_glue,
    format_surface,
)
from .tensor import (
    MAX_GENUS,
    RATIONAL,
    LabeledTensor,
    SignedIndex,
    contract_between,
    contract_within,
    dense_size,
    format_scalar,
    genus_over_budget,
    quoted,
    scalars_equal,
)
from .tqft import TqftData, annulus_matrix, check_relations, handle_matrix

# The shapes with no pants decomposition as networks of generator nodes, one
# leg tuple per node (d has one leg, p three).  b1, b2 are the boundary
# circles in order; cut circles carry an apostrophe, which no label has.
EXCEPTIONAL = {
    (0, 0): (("c'",), ("c'",)),             # sphere: d glued to d
    (0, 1): (("b1",),),                     # disk: one d
    (0, 2): (("c'",), ("c'", "b1", "b2")),  # annulus: d glued to p
    (1, 0): (("c'",), ("c'", "h'", "h'")),  # torus: the annulus glued to itself
}


# -- pants decompositions ----------------------------------------------------

@dataclass(frozen=True)
class Pants:
    """One 3-legged node; legs are circle labels.

    Legs are distinct except that an internal circle may appear twice when
    the node carries a self-paired handle.
    """

    legs: tuple[str, str, str]

    def __post_init__(self):
        if len(self.legs) != 3:
            raise LabelError(f"a pants node has exactly 3 legs, got {self.legs}")
        if len(set(self.legs)) == 1:
            raise LabelError(f"a label cannot fill all legs of one pants: {self.legs}")

    def __str__(self) -> str:
        return "(" + " ".join(self.legs) + ")"


@dataclass(frozen=True)
class PantsDecomposition:
    """A network of pants nodes.

    External labels are the surface's boundary circles and occur in exactly
    one leg slot; internal (cutting) labels occur in exactly two slots,
    possibly both on one node (a handle).
    """

    pants: tuple[Pants, ...]
    external: frozenset[str]
    internal: frozenset[str]

    @property
    def boundary_count(self) -> int:
        return len(self.external)

    @property
    def genus(self) -> int:
        # Each pants has Euler characteristic -1 and gluing circles add 0,
        # so chi = -len(pants) = 2 - 2g - n.
        return (len(self.pants) + 2 - len(self.external)) // 2

    def validate(self) -> list[str]:
        violations = []
        owners: dict[str, list[int]] = {}  # label -> its nodes, once per leg
        for k, node in enumerate(self.pants):
            for leg in node.legs:
                owners.setdefault(leg, []).append(k)
        for label in owners:
            if not LABEL_RE.fullmatch(label):
                violations.append(f"bad label {quoted(label)}")
        for kind, labels, wanted in (("external", self.external, 1),
                                     ("internal", self.internal, 2)):
            for label in labels:
                if (count := len(owners.get(label, ()))) != wanted:
                    violations.append(f"{kind} label {label} occurs {count} times")
        for label in owners:
            if label not in self.external and label not in self.internal:
                violations.append(f"unclassified label {label}")
        # The counts also rule out a label both external and internal and a
        # repeated non-internal leg; with connectivity they make the genus
        # (P + 2 - n) / 2 = I - P + 1 a whole number >= 0 for P pants and I
        # internal circles.
        if not self.pants:
            violations.append("no pants nodes")
        # Union-find over the nodes sharing a label: near-linear in the legs,
        # even when one label sits on every node.
        parent = list(range(len(self.pants)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for nodes in owners.values():
            for other in nodes[1:]:
                parent[find(other)] = find(nodes[0])
        if len({find(k) for k in range(len(parent))}) > 1:
            violations.append("network is not connected")
        return violations

    def require_valid(self) -> "PantsDecomposition":
        violations = self.validate()
        if violations:
            raise TqftError("invalid decomposition: " + "; ".join(violations))
        return self

    def __str__(self) -> str:
        nodes = " ".join(str(node) for node in self.pants)
        ext = ",".join(sorted(self.external))
        cut = ",".join(sorted(self.internal))
        return f"pants[{nodes}] external[{ext}] internal[{cut}]"


def _internal_names(count: int, reserved: set[str]) -> list[str]:
    names = []
    k = 1
    while len(names) < count:
        name = f"cut{k}"
        k += 1
        if name not in reserved:
            names.append(name)
    return names


def pants_decomposition(genus: int, boundary_count: int, *,
                        labels: Sequence[str] | None = None) -> PantsDecomposition:
    """The chain decomposition of the connected (genus, boundary_count)
    surface; valid by construction.

    The spine is one row of legs cut into triples, (x0 x1 c1) (c1 x2 c2) ...
    (c x x): the x's are the boundary labels, then the circles attaching the
    g handle nodes (x h h), and each spine cut c appears twice in a row.
    `labels` names the external legs (defaults to b1..bn).
    """
    g, n = genus, boundary_count
    if not (isinstance(g, int) and isinstance(n, int) and g >= 0 and n >= 0):
        raise ValueError(
            f"genus and boundary count must be integers >= 0, got {g!r} and {n!r}")
    if g > MAX_GENUS:
        raise genus_over_budget(g)
    if 2 * g - 2 + n < 1:  # the EXCEPTIONAL shapes
        raise ValueError(
            f"(genus={g}, boundary={n}) has no pants decomposition")
    external = list(labels) if labels is not None else [f"b{k + 1}" for k in range(n)]
    if len(external) != n:
        raise LabelError(f"expected {n} external labels, got {len(external)}")
    if len(set(external)) != n:
        raise LabelError("external labels must be distinct")
    for label in external:
        if not LABEL_RE.fullmatch(label):
            raise LabelError(f"bad label {quoted(label)}")

    spine_len = g - 2 + n  # 2g-2+n pants, g of them handle nodes
    cuts = max(spine_len - 1, 0)
    names = _internal_names(cuts + 2 * g, set(external))
    spine_cuts, attach, handles = names[:cuts], names[cuts:cuts + g], names[cuts + g:]
    nodes: list[tuple[str, ...]] = []
    if spine_len >= 1:
        xs = external + attach
        row = [xs[0], *itertools.chain.from_iterable(
            (x, c, c) for x, c in zip(xs[1:], spine_cuts)), *xs[-2:]]
        nodes = [tuple(row[k:k + 3]) for k in range(0, len(row), 3)]
    else:
        # (1, 1) and (2, 0) have no spine: the handles hang off the one
        # boundary circle, or off one circle joining the two handle nodes.
        attach = external or attach[:1] * 2
    nodes += [(a, h, h) for a, h in zip(attach, handles)]

    internal = {leg for legs in nodes for leg in legs} - set(external)
    return PantsDecomposition(tuple(Pants(legs) for legs in nodes),
                              frozenset(external), frozenset(internal))


Move = tuple[int, int, str, int]


def exchange_moves(decomposition: PantsDecomposition) -> list[Move]:
    """All leg-regrouping moves: for a circle occurring once in each of two
    nodes, the four remaining legs can be regrouped in two other ways.
    A move is (node_a, node_b, circle, variant) with variant in {0, 1}."""
    single: dict[str, list[int]] = {}
    for k, node in enumerate(decomposition.pants):
        for label in node.legs:
            if node.legs.count(label) == 1:
                single.setdefault(label, []).append(k)
    return sorted((a, b, label, variant)
                  for label, nodes in single.items()
                  for a, b in itertools.combinations(nodes, 2)
                  for variant in (0, 1))


def apply_exchange(decomposition: PantsDecomposition, move: Move) -> PantsDecomposition:
    """Regroup the four free legs around a connecting circle.

    With node_a = (x1, x2, c) and node_b = (c, y1, y2), variant 0 yields
    (x1, y1, c), (c, x2, y2) and variant 1 yields (x1, y2, c), (c, x2, y1).
    Pants count, external legs, connectivity and genus are all preserved.
    """
    a, b, label, variant = move
    node_a, node_b = decomposition.pants[a], decomposition.pants[b]
    xs = [leg for leg in node_a.legs if leg != label]
    ys = [leg for leg in node_b.legs if leg != label]
    if len(xs) != 2 or len(ys) != 2:
        raise ValueError(f"move {move} does not fit the decomposition")
    if variant:
        ys = [ys[1], ys[0]]
    new_a = Pants((xs[0], ys[0], label))
    new_b = Pants((label, xs[1], ys[1]))
    pants = list(decomposition.pants)
    pants[a], pants[b] = new_a, new_b
    return PantsDecomposition(tuple(pants), decomposition.external,
                              decomposition.internal)


def random_rewrite(decomposition: PantsDecomposition, rng: random.Random,
                   moves: int = 1) -> PantsDecomposition:
    """Apply `moves` random regrouping moves (seeded via `rng`); moves keep validity."""
    current = decomposition
    for _ in range(moves):
        options = exchange_moves(current)
        if not options:
            break
        current = apply_exchange(current, rng.choice(options))
    return current


# -- tensor assembly ---------------------------------------------------------

def _pants_network(data: TqftData, nodes: Iterable[Sequence[str]]
                   ) -> tuple[list[LabeledTensor], list[tuple[str, str]]]:
    """Node tensors plus the contraction pairs for the internal circles.

    Each node is a tuple of leg labels: a one-legged node gets the entries
    of d and a three-legged node those of p.  A label seen before is, in a
    valid network, an internal circle's second leg: it gets an apostrophe
    and the opposite sign, so each pair is a legal +/- contraction.
    """
    n = data.dimension
    generator = {1: data.d.entries, 3: data.p.entries}
    seen: set[str] = set()
    tensors = []
    pairs = []
    for legs in nodes:
        indices = []
        for leg in legs:
            if leg in seen:
                indices.append(SignedIndex(leg + "'", MINUS, n))
                pairs.append((leg, leg + "'"))
            else:
                seen.add(leg)
                indices.append(SignedIndex(leg, PLUS, n))
        tensors.append(LabeledTensor._of(tuple(indices), generator[len(legs)], data.backend))
    return tensors, pairs


def _contract_network(tensors: list[LabeledTensor],
                      pairs: list[tuple[str, str]]) -> LabeledTensor:
    """Contract all pairs, smallest intermediate rank first.

    Any order gives the same result; the greedy choice only bounds the size
    of intermediate tensors.  Pairs living on the same one or two tensors
    form a group and are contracted together, in input order, in one fused
    step.  Each step takes the group whose result has the smallest rank;
    a tie goes to the group whose first pair comes earliest in `pairs`.
    The lower-numbered tensor is the left operand and the merged tensor
    takes its number, so one tensor, the result, is left at the end.

    Precondition: the pairs join labels of `tensors` into one connected
    network, as `_pants_network` builds from an EXCEPTIONAL shape or a
    decomposition that passes `PantsDecomposition.validate`.

    One adjacency map holds the groups: `near[t][u]`, reached from both
    ends, lists the pairs joining tensors t and u in order; `near[t][t]` is
    t's self-gluing.  A merged tensor's lists are filed again under the one
    it joins.  A heap keyed by (rank, first pair) is re-keyed only where
    groups touch the merged tensor: O((P + pairs) log P) for P tensors.
    """
    live = dict(enumerate(tensors))
    ranks = [tensor.rank for tensor in tensors]
    owner = {label: k for k, tensor in enumerate(tensors) for label in tensor.labels}
    near: list[dict[int, list[int]]] = [{} for _ in tensors]
    for index, pair in enumerate(pairs):
        ta, tb = sorted(owner[label] for label in pair)
        near[tb][ta] = near[ta].setdefault(tb, [])
        near[ta][tb].append(index)

    def entry(ta: int, tb: int) -> tuple[int, int, int, int]:
        group = near[ta][tb]
        return ranks[ta] + (ranks[tb] if ta != tb else 0) - 2 * len(group), group[0], ta, tb

    heap = [entry(ta, tb) for ta, row in enumerate(near) for tb in row if ta <= tb]
    heapq.heapify(heap)
    while heap:
        top = heapq.heappop(heap)
        rank, _, ta, tb = top
        if tb not in near[ta] or entry(ta, tb) != top:
            continue  # stale: the group was merged or its rank changed
        grouped = [pairs[index] for index in near[ta].pop(tb)]
        if ta == tb:
            live[ta] = contract_within(live[ta], grouped)
        else:
            live[ta] = contract_between(live[ta], live.pop(tb), grouped)
            moved, near[tb] = near[tb], {}
            del moved[ta]
            for other, group in moved.items():
                near[other].pop(tb, None)
                other = ta if other == tb else other
                near[ta][other] = near[other][ta] = sorted(near[ta].get(other, []) + group)
        ranks[ta] = rank
        for other in near[ta]:
            heapq.heappush(heap, entry(min(ta, other), max(ta, other)))
    (result,) = live.values()
    return result


def _network_invariant(data: TqftData, nodes: Iterable[Sequence[str]],
                       boundary: Sequence[BoundaryCircle]) -> LabeledTensor:
    """Contract the network of generator `nodes`, then order the external
    indices by the boundary sequence and stamp each with its circle's
    orientation sign (entries unchanged)."""
    tensor = _contract_network(*_pants_network(data, nodes))
    return apply_isomorphism(
        tensor, [tensor.position(c.label) for c in boundary],
        [c.label for c in boundary if c.orientation is MINUS])


def invariant_of_decomposition(data: TqftData,
                               decomposition: PantsDecomposition,
                               boundary: Sequence[BoundaryCircle]) -> LabeledTensor:
    """Tensor of a connected surface from a specific decomposition, validated here."""
    decomposition.require_valid()
    if {c.label for c in boundary} != set(decomposition.external):
        raise LabelError("decomposition external labels do not match the boundary")
    return _network_invariant(
        data, [node.legs for node in decomposition.pants], boundary)


def _normal_form(data: TqftData, genus: int,
                 boundary: Sequence[BoundaryCircle]) -> LabeledTensor:
    """The tensor of a connected surface with n >= 1 boundary circles, read
    off the Frobenius algebra of data that pass the relations, through the
    annulus c and the handle matrix M stored on the datum.

    With B = M^genus and L_a[i,j] = p[a,i,j], the tensor is B d for n = 1,
    c B for n = 2 and Z[i1..in] = (L_{i2} ... L_{i(n-1)} B)[i1,in] for
    n >= 3 (c L_a = L_a).  Each product is an engine call on operands built
    by the trusted constructor.  B is applied by repeated squaring to the
    first factor Y (d, c or p), so no identity is built at genus 0.

    An entry depends only on the multiset of its indices, so the walk keeps
    one block per prefix multiset, keyed additively: the count of each value
    v is digit v in base n + 1.  The first two indices select a block of Y;
    from then on each prefix owns one row, and that row times p is one
    engine call giving the rows of every next index.  Equal entries share
    one scalar object, and the dense output is the (n-1)-prefix rows in
    row-major order.
    """
    n, dim, backend = len(boundary), data.dimension, data.backend
    dense_size(dim, n)
    legs = (SignedIndex("x'", PLUS, dim), SignedIndex("y'", PLUS, dim),
            SignedIndex("z'", MINUS, dim))

    def times(left: tuple, rank: int, right: LabeledTensor) -> tuple:
        # left's last index summed against right's first
        operand = LabeledTensor._of(legs[-rank:], left, backend)
        return contract_between(operand, right, [("z'", right.labels[0])]).entries

    rank = min(n, 3)
    y = (data.d, annulus_matrix(data), data.p)[rank - 1].entries
    power = handle_matrix(data)
    while genus:
        if genus & 1:
            y = times(y, rank, power)
        genus >>= 1
        if genus:
            power = LabeledTensor._of(power.indices, times(power.entries, 2, power), backend)

    weights = [(n + 1) ** v for v in range(dim)]
    keys, blocks = [0], {0: y}  # the prefixes in row-major order; their blocks
    for depth in range(n - 1):
        keys = [key + w for key in keys for w in weights]
        grown = {}
        for key, block in blocks.items():
            if depth >= 2:  # a row past Y's blocks; a zero row stays zero
                block = times(block, 1, data.p) if any(block) else block * dim
            step = len(block) // dim
            for v, w in enumerate(weights):
                grown.setdefault(key + w, block[v * step:(v + 1) * step])
        blocks = grown
    value = {}
    rows = {key: tuple([value.setdefault(key + w, x) for w, x in zip(weights, row)])
            for key, row in blocks.items()}
    return LabeledTensor._of(
        tuple(SignedIndex(c.label, c.orientation, dim) for c in boundary),
        tuple(itertools.chain.from_iterable(map(rows.__getitem__, keys))), backend)


def _component_invariant(data: TqftData, component: ConnectedSurface) -> LabeledTensor:
    """From the normal form for n >= 1 circles on rational data whose stored
    relation report passed, else from the pants network.  The report is read,
    never computed, here."""
    g, n = component.genus, len(component.boundary)
    if g > MAX_GENUS:
        raise genus_over_budget(g)
    report = data._reports.get("relations")
    if n and data.backend == RATIONAL and report is not None and report.passed:
        return _normal_form(data, g, component.boundary)
    labels = component.labels()
    if (g, n) in EXCEPTIONAL:
        rename = {f"b{k + 1}": label for k, label in enumerate(labels)}
        nodes = [[rename.get(leg, leg) for leg in legs] for legs in EXCEPTIONAL[g, n]]
        return _network_invariant(data, nodes, component.boundary)
    decomposition = pants_decomposition(g, n, labels=labels)
    return invariant_of_decomposition(data, decomposition, component.boundary)


def invariant(data: TqftData, surface: Surface, *,
              require_relations: bool = True) -> LabeledTensor:
    """The tensor assigned to a surface.

    One index per boundary circle, in boundary order, carrying the circle's
    orientation sign; components multiply.  The entries do not depend on the
    decomposition, the boundary orientations or the surface orientation.

    Refuses data failing the relations (the invariant is only well defined
    then); pass require_relations=False to compute anyway, e.g. to exhibit a
    decomposition mismatch for bad data.
    """
    surface.require_valid()
    if require_relations:
        _require_relations(data)
    tensors = [_component_invariant(data, component)
               for component in surface.components]
    if not tensors:
        return LabeledTensor.scalar(1, data.backend)
    return functools.reduce(LabeledTensor.tensor_product, tensors)


def annulus_tensor(data: TqftData) -> LabeledTensor:
    """The annulus's invariant c[i,j] = sum_k d[k] p[k,i,j], indices (-i, +j),
    relations or not; when they hold, c is an idempotent matrix fixing d."""
    return invariant(data, Surface.annulus("-i,+j"), require_relations=False)


def base_invariants(data: TqftData) -> dict[str, LabeledTensor]:
    """The invariants of the surfaces with no pants decomposition, relations
    or not: empty -> 1, sphere -> sum_i d[i]^2, disk -> d[i],
    annulus -> sum_k d[k] p[k,i,j], torus -> sum_{k,i} d[k] p[k,i,i]."""
    surfaces = {"empty": Surface.empty(), "sphere": Surface.sphere(),
                "disk": Surface.disk("+i"), "annulus": Surface.annulus("-i,+j"),
                "torus": Surface.torus()}
    return {name: invariant(data, surface, require_relations=False)
            for name, surface in surfaces.items()}


def _require_relations(data: TqftData) -> None:
    report = check_relations(data)
    if not report.passed:
        failed = [r.name for r in report.results if not r.passed]
        raise RelationError(
            f"data fails relations: {', '.join(failed)}; "
            "pass require_relations=False to override")


def closed_invariant(data: TqftData, genus: int):
    """Scalar invariant of the closed genus-g surface."""
    if isinstance(genus, int) and genus < 0:  # Surface.validate refuses other types
        raise ValueError("genus must be non-negative")
    return invariant(data, Surface.connected(genus)).entries[0]


def apply_gluing(data: TqftData, tensor: LabeledTensor,
                 spec: GlueSpec | Iterable[tuple[str, str]]) -> LabeledTensor:
    """Contract the tensor along each glue pair (the algebraic image of a
    gluing: one + and one - index per pair disappear).

    Equals the invariant of the glued surface whenever `tensor` is the
    invariant of the unglued one. All pairs are contracted in one pass.
    """
    spec = spec if isinstance(spec, GlueSpec) else GlueSpec.of(spec)
    if tensor.rank and tensor.dimension != data.dimension:
        raise DimensionError(
            f"tensor dimension {tensor.dimension} does not match data "
            f"dimension {data.dimension}")
    return contract_within(tensor, spec.pairs)


def apply_isomorphism(tensor: LabeledTensor, perm: Sequence[int],
                      flips: Iterable[str] = ()) -> LabeledTensor:
    """Reorder indices, then reverse the signs of the flipped labels.

    This is the full action of surface isomorphisms on tensors: boundary
    reorderings permute indices, orientation changes flip signs, and entries
    never change.
    """
    return tensor.permute_indices(perm).flip_signs(flips)


# -- verification suites -----------------------------------------------------

@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    detail: str = ""

    def to_text(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.label}"
        if self.detail and not self.passed:
            line += f": {self.detail}"
        return line


@dataclass
class VerificationReport:
    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """False for a report with no checks: a suite that checked nothing
        has shown nothing."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def add(self, label: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(label, passed, detail))

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self.checks)


def _start_suite(name: str, data: TqftData, trials: int,
                 require_relations: bool) -> VerificationReport:
    """The empty report of suite `name`, after refusing a negative trial
    count and, if required, data failing the relations."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if require_relations:
        _require_relations(data)
    return VerificationReport(name)


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in [seed, *parts]))


MISMATCH_SHOWN = 8


def _tensor_mismatch(a: LabeledTensor, b: LabeledTensor,
                     head: str | None = None) -> str:
    """How two tensors differ, in bounded size: both index signatures (or
    `head` in their place when they agree), the first MISMATCH_SHOWN
    differing entries (1-based assignment, left value, right value) and the
    count of differing entries."""
    signatures = f"got {a!r} versus {b!r}"
    if a.indices != b.indices or a.backend != b.backend:
        return signatures + "; index signatures differ"
    lines = [head or signatures]
    count = 0
    for assign, x, y in zip(a.assignments(), a.entries, b.entries):
        if not scalars_equal(x, y, a.backend):
            count += 1
            if count <= MISMATCH_SHOWN:
                at = " ".join(str(v + 1) for v in assign) or "()"
                lines.append(f"at {at}: {format_scalar(x, a.backend)} "
                             f"versus {format_scalar(y, b.backend)}")
    lines.append(f"{count} of {len(a.entries)} entries differ")
    return "\n".join(lines)


def _pants_mismatch(a: PantsDecomposition, b: PantsDecomposition) -> str:
    """Where two decompositions of one surface differ, in bounded size: the
    first MISMATCH_SHOWN differing node positions (1-based) and their count."""
    differing = [k + 1 for k, (x, y) in enumerate(zip(a.pants, b.pants))
                 if x != y]
    shown = " ".join(str(k) for k in differing[:MISMATCH_SHOWN])
    return f"{len(differing)} of {len(a.pants)} pants nodes differ: {shown}"


def verify_decomposition_invariance(data: TqftData, g_max: int, n_max: int,
                                    trials: int, seed=0, *,
                                    require_relations: bool = True
                                    ) -> VerificationReport:
    """Check that every decomposition of every (g, n) surface in range gives
    the same tensor: the chain vs its first regrouping move (`alternate`),
    plus `trials` random regroupings.

    Only shapes with 2g-2+n >= 2 are interesting (below that the
    decomposition is unique).  Handle-curve recuttings all reduce to the
    symmetry of the rank-3 generator in this model, so regrouping moves are
    the only rewrites exercised.
    """
    report = _start_suite("moves", data, trials, require_relations)
    for g in range(g_max + 1):
        for n in range(n_max + 1):
            if 2 * g - 2 + n < 2:
                continue
            boundary = tuple(BoundaryCircle(f"b{k + 1}", PLUS) for k in range(n))
            chain = pants_decomposition(g, n)
            reference = invariant_of_decomposition(data, chain, boundary)
            candidates = [("alternate", apply_exchange(chain, exchange_moves(chain)[0]))]
            for t in range(trials):
                rng = _rng(seed, "moves", g, n, t)
                candidates.append(
                    (f"rewrite {t}", random_rewrite(chain, rng, moves=1 + t % 3)))
            for tag, decomposition in candidates:
                value = invariant_of_decomposition(data, decomposition, boundary)
                ok = reference.canonical().equals(value.canonical())
                detail = "" if ok else _tensor_mismatch(
                    reference.canonical(), value.canonical(),
                    head=_pants_mismatch(chain, decomposition))
                report.add(f"(g={g}, n={n}) chain vs {tag}", ok, detail)
    return report


RANDOM_BOUNDARY = 4  # most circles on one component of a random_surface


def random_surface(rng: random.Random, prefix: str = "s", *,
                   max_components: int = 2, max_genus: int = 2,
                   max_total_boundary: int = 8) -> Surface:
    """A seeded random surface with fresh labels `prefix`0, `prefix`1, ...

    Each component has at most RANDOM_BOUNDARY circles, and the total
    boundary count is capped so that the surface's tensor stays a tractable
    dense array.
    """
    counter = itertools.count()
    components = []
    budget = max_total_boundary
    for _ in range(rng.randint(1, max_components)):
        genus = rng.randint(0, max_genus)
        count = rng.randint(0, min(RANDOM_BOUNDARY, budget))
        budget -= count
        boundary = tuple(
            BoundaryCircle(f"{prefix}{next(counter)}",
                           PLUS if rng.random() < 0.5 else MINUS)
            for _ in range(count))
        orientation = PLUS if rng.random() < 0.5 else MINUS
        components.append(ConnectedSurface(genus, orientation, boundary))
    return Surface(tuple(components))


def random_glue_spec(rng: random.Random, surface: Surface) -> GlueSpec:
    """A seeded random legal batch of glue pairs for `surface`."""
    plus = [c.label for c in surface.boundary_circles() if c.orientation is PLUS]
    minus = [c.label for c in surface.boundary_circles() if c.orientation is MINUS]
    rng.shuffle(plus)
    rng.shuffle(minus)
    count = rng.randint(0, min(len(plus), len(minus)))
    pairs = []
    for a, b in zip(minus[:count], plus[:count]):
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return GlueSpec(tuple(pairs))


def verify_functoriality(data: TqftData, trials: int, seed=0, *,
                         require_relations: bool = True) -> VerificationReport:
    """Random two-stage gluings: contracting step by step, contracting the
    composed spec in one shot, and the invariant of the glued surface must
    all agree."""
    report = _start_suite("functor", data, trials, require_relations)
    for t in range(trials):
        rng = _rng(seed, "functor", t)
        surface = random_surface(rng, prefix=f"t{t}_")
        first = random_glue_spec(rng, surface)
        once = surface.glue(first)
        second = random_glue_spec(rng, once)
        twice = once.glue(second)
        start = invariant(data, surface, require_relations=False)
        stepwise = apply_gluing(data, apply_gluing(data, start, first), second)
        composed = apply_gluing(data, start, compose_glue(first, second))
        direct = invariant(data, twice, require_relations=False)
        composes = stepwise.equals(composed)
        ok = composes and stepwise.canonical().equals(direct.canonical())
        detail = "" if ok else (
            f"surface:\n{format_surface(surface)}\n"
            f"first {str(first) or '(empty)'} then {str(second) or '(empty)'}; "
            + (_tensor_mismatch(stepwise.canonical(), direct.canonical())
               if composes else _tensor_mismatch(stepwise, composed)))
        report.add(f"trial {t}: glue twice vs composed vs reglued surface", ok, detail)
    return report


def verify_monoidal(data: TqftData, trials: int, seed=0, *,
                    require_relations: bool = True) -> VerificationReport:
    """Random pairs of surfaces: the invariant of the disjoint union must be
    the tensor product of the invariants."""
    report = _start_suite("monoidal", data, trials, require_relations)
    for t in range(trials):
        rng = _rng(seed, "monoidal", t)
        left = random_surface(rng, prefix=f"l{t}_", max_total_boundary=4)
        right = random_surface(rng, prefix=f"r{t}_", max_total_boundary=4)
        if rng.random() < 0.1:
            right = Surface.empty()
        union = left.disjoint_union(right)
        combined = invariant(data, union, require_relations=False)
        product = invariant(data, left, require_relations=False).tensor_product(
            invariant(data, right, require_relations=False))
        ok = combined.equals(product)
        detail = "" if ok else (
            f"surfaces:\n{format_surface(union)}\n"
            + _tensor_mismatch(combined, product))
        report.add(f"trial {t}: union vs tensor product", ok, detail)
    return report
