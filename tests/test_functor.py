import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft2d import (
    COMPLEX,
    MINUS,
    PLUS,
    BoundaryCircle,
    ConnectedSurface,
    DimensionError,
    GlueSpec,
    LabelError,
    LabeledTensor,
    OrientationError,
    Pants,
    PantsDecomposition,
    RelationError,
    SignedIndex,
    Surface,
    TqftData,
    TqftError,
    annulus_tensor,
    apply_exchange,
    apply_gluing,
    apply_isomorphism,
    check_relations,
    circles,
    closed_invariant,
    compose_glue,
    diagonal_family,
    exchange_moves,
    invariant,
    invariant_of_decomposition,
    pants_decomposition,
    random_rewrite,
    verify_decomposition_invariance,
    verify_functoriality,
    verify_monoidal,
)
import tqft2d.functor as functor
from tqft2d.functor import (
    EXCEPTIONAL,
    MISMATCH_SHOWN,
    _contract_network,
    _network_invariant,
    _pants_mismatch,
    _pants_network,
    _tensor_mismatch,
    random_glue_spec,
    random_surface,
)
from tqft2d.surface import LABEL_RE
from tqft2d.tensor import MAX_GENUS

from good_data import (conjugated, good_data, good_data_by_seed, identity, reflection,
                       rotation)

D2 = diagonal_family([Fraction(1), Fraction(2)])
D1_T2 = diagonal_family([Fraction(2)])
STRATEGIES = ("chain", "alternate")


def decompose(g, n, strategy="chain", labels=None):
    """The chain decomposition or, for "alternate", the chain with its first
    regrouping move, as the moves suite builds its `alternate`; a shape with
    no move (one pants) is its chain either way."""
    chain = pants_decomposition(g, n, labels=labels)
    moves = exchange_moves(chain) if strategy == "alternate" else []
    return apply_exchange(chain, moves[0]) if moves else chain


def decompose_by(monkeypatch, strategy):
    """Make `invariant` cut every component by `decompose(..., strategy)`."""
    monkeypatch.setattr(functor, "pants_decomposition",
                        lambda g, n, *, labels=None: decompose(g, n, strategy, labels))


ROTATED = conjugated([1, 2], rotation(Fraction(3, 5), Fraction(4, 5)))
ROTATED_COMPLEX = TqftData([complex(v) for v in ROTATED.d.entries],
                           [complex(v) for v in ROTATED.p.entries], COMPLEX)


def bad_exchange_data():
    """Symmetric dim-2 p violating the exchange relation (d irrelevant)."""
    n = 2
    p = [Fraction(0)] * 8
    for i, j, k in set(itertools.permutations((0, 0, 1))):
        p[(i * n + j) * n + k] = Fraction(1)
    return TqftData([Fraction(1), Fraction(1)], p)


class TestPantsDecomposition:
    def test_three_holed_sphere_is_one_node(self):
        dec = pants_decomposition(0, 3)
        assert len(dec.pants) == 1
        assert len(dec.external) == 3
        assert dec.internal == frozenset()

    def test_one_holed_torus_self_pairs(self):
        dec = pants_decomposition(1, 1)
        assert len(dec.pants) == 1
        assert len(dec.internal) == 1
        handle = next(iter(dec.internal))
        assert sorted(dec.pants[0].legs).count(handle) == 2

    def test_four_holed_sphere_chain(self):
        dec = pants_decomposition(0, 4)
        assert len(dec.pants) == 2
        assert len(dec.internal) == 1
        shared = next(iter(dec.internal))
        assert all(shared in node.legs for node in dec.pants)

    @pytest.mark.parametrize("g,n", sorted(EXCEPTIONAL))
    def test_exceptional_set_rejected(self, g, n):
        with pytest.raises(ValueError):
            pants_decomposition(g, n)

    @pytest.mark.parametrize("g", range(4))
    @pytest.mark.parametrize("n", range(5))
    def test_counts_and_validity(self, g, n):
        if (g, n) in EXCEPTIONAL or 2 * g - 2 + n < 1:
            return
        for strategy in STRATEGIES:
            dec = decompose(g, n, strategy)
            assert dec.validate() == []
            assert len(dec.pants) == 2 * g - 2 + n
            assert len(dec.internal) == 3 * g - 3 + n
            assert dec.genus == g
            assert dec.boundary_count == n

    def test_alternate_differs_when_it_can(self):
        for g, n in [(0, 4), (1, 2), (2, 0), (2, 3), (3, 1)]:
            chain = decompose(g, n, "chain")
            alternate = decompose(g, n, "alternate")
            assert sorted(p.legs for p in chain.pants) != \
                sorted(p.legs for p in alternate.pants), (g, n)

    def test_labels_are_keyword_only(self):
        with pytest.raises(TypeError):
            pants_decomposition(1, 2, "alternate")
        with pytest.raises(TypeError):
            pants_decomposition(0, 3, ["x", "y", "z"])

    @pytest.mark.parametrize("g,n,shown", [(1.5, 1, "1.5 and 1"), (2, 1.0, "2 and 1.0"),
                                           ("2", 1, "'2' and 1"), (-1, 4, "-1 and 4")])
    def test_counts_that_are_not_whole_numbers_rejected(self, g, n, shown):
        with pytest.raises(ValueError, match=f"must be integers >= 0, got {shown}$"):
            pants_decomposition(g, n)

    def test_custom_labels(self):
        dec = pants_decomposition(0, 3, labels=["x", "y", "z"])
        assert dec.external == frozenset({"x", "y", "z"})

    def test_label_count_checked(self):
        with pytest.raises(LabelError):
            pants_decomposition(0, 3, labels=["x"])

    @pytest.mark.parametrize("label", ["", "a b", "x'", "a-b", "\u00e9"])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(LabelError, match="bad label"):
            pants_decomposition(0, 3, labels=["p", "q", label])
        assert issubclass(LabelError, TqftError)

    def test_shapes_without_a_spine(self):
        assert str(pants_decomposition(1, 1)) == \
            "pants[(b1 cut2 cut2)] external[b1] internal[cut2]"
        assert str(pants_decomposition(2, 0)) == \
            "pants[(cut1 cut3 cut3) (cut1 cut4 cut4)] external[] internal[cut1,cut3,cut4]"
        assert str(pants_decomposition(1, 1, labels=["cut2"])) == \
            "pants[(cut2 cut3 cut3)] external[cut2] internal[cut3]"

    def test_chain_layout_is_pinned(self):
        # Every leg of every chain with g, n <= 12, with the default labels and
        # with labels that collide with the default cut names: 330 shapes.
        layouts = [str(pants_decomposition(g, n, labels=labels))
                   for g, n in itertools.product(range(13), repeat=2)
                   if 2 * g - 2 + n >= 1
                   for labels in (None, [f"cut{k + 1}" for k in range(n)])]
        assert len(layouts) == 330
        assert hashlib.sha256("\n".join(layouts).encode()).hexdigest() == \
            "78262ae8270854d96db1b6c621f825b1f54ca6e7919a01c2edc6461c8f5c3b11"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_shape_up_to_ten_is_valid(self, strategy):
        for g, n in itertools.product(range(11), repeat=2):
            if 2 * g - 2 + n < 1 or (g, n) in EXCEPTIONAL:
                continue
            for labels in (None, [f"cut{k + 1}" for k in range(n)],
                           [f"cut{2 * k + 3}" for k in range(n)]):
                dec = decompose(g, n, strategy, labels)
                assert dec.validate() == [], (g, n, labels)
                assert (len(dec.pants), dec.genus, dec.boundary_count) == \
                    (2 * g - 2 + n, g, n)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_labels_give_a_valid_decomposition(self, data):
        g = data.draw(st.integers(0, 10))
        n = data.draw(st.integers(0 if g >= 2 else 3 - 2 * g, 10))
        label = st.one_of(st.sampled_from([f"cut{k}" for k in range(1, 40)]),
                          st.sampled_from([f"b{k}" for k in range(1, 12)]),
                          st.from_regex(LABEL_RE, fullmatch=True))
        labels = data.draw(st.lists(label, min_size=n, max_size=n, unique=True))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        dec = decompose(g, n, strategy, labels)
        assert dec.validate() == []
        assert dec.external == frozenset(labels) and dec.genus == g

    def test_validate_reports_problems(self):
        broken = PantsDecomposition(
            (Pants(("a", "b", "c")),), frozenset({"a", "b"}), frozenset({"c"}))
        assert any("c occurs 1" in v for v in broken.validate())
        disconnected = PantsDecomposition(
            (Pants(("a", "b", "c")), Pants(("d", "e", "f"))),
            frozenset("abcdef"), frozenset())
        assert any("not connected" in v for v in disconnected.validate())

    # The exact validate() list for decompositions broken in each way it
    # reports.  Each case has at most one violation per set it iterates, so
    # the lists do not depend on the hash seed.
    BROKEN = {
        "bad label": ((("a", "x y", "c"),), "ac", "",
                      ["bad label 'x y'", "unclassified label x y"]),
        "external twice": ((("a", "b", "c"), ("c", "d", "a")), "abd", "c",
                           ["external label a occurs 2 times"]),
        "external missing": ((("a", "b", "c"),), "abcz", "",
                             ["external label z occurs 0 times"]),
        "handle as external": ((("a", "h", "h"),), "ah", "",
                               ["external label h occurs 2 times"]),
        "internal count": ((("a", "b", "c"),), "ab", "c",
                           ["internal label c occurs 1 times"]),
        "unclassified": ((("a", "b", "c"),), "ab", "", ["unclassified label c"]),
        "no pants": ((), "a", "c", ["external label a occurs 0 times",
                                    "internal label c occurs 0 times",
                                    "no pants nodes"]),
        "not connected": ((("a", "b", "c"), ("d", "e", "f")), "abcdef", "",
                          ["network is not connected"]),
        "every kind": (
            (("a", "x y", "c"), ("c", "d", "e"), ("f", "g", "h")), "adz", "ce",
            ["bad label 'x y'", "external label z occurs 0 times",
             "internal label e occurs 1 times", "unclassified label x y",
             "unclassified label f", "unclassified label g",
             "unclassified label h", "network is not connected"]),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_violations_pinned(self, case):
        nodes, external, internal, expected = self.BROKEN[case]
        dec = PantsDecomposition(tuple(Pants(legs) for legs in nodes),
                                 frozenset(external), frozenset(internal))
        assert dec.validate() == expected

    def test_one_label_on_every_node_validates_in_linear_time(self):
        nodes = tuple(Pants(("hub", f"x{k}", f"y{k}")) for k in range(20000))
        dec = PantsDecomposition(nodes, frozenset(), frozenset({"hub"}))
        start = time.perf_counter()
        violations = dec.validate()
        assert time.perf_counter() - start < 5
        assert violations[0] == "internal label hub occurs 20000 times"
        assert len(violations) == 40001  # hub, then 40000 unclassified legs


def validates_fully(dec):
    """Every check a decomposition could be put through, some implied by
    others: the reference for PantsDecomposition.validate."""
    counts = Counter(leg for node in dec.pants for leg in node.legs)
    p, n = len(dec.pants), len(dec.external)
    if (not all(LABEL_RE.fullmatch(label) for label in counts)
            or dec.external & dec.internal
            or any(counts[label] != 1 for label in dec.external)
            or any(counts[label] != 2 for label in dec.internal)
            or set(counts) - dec.external - dec.internal
            or any(node.legs.count(leg) == 2 and leg not in dec.internal
                   for node in dec.pants for leg in node.legs)
            or p < 1 or (p + 2 - n) % 2 or p + 2 - n < 0):
        return False
    reached, frontier = {0}, [0]
    while frontier:
        k = frontier.pop()
        for j, node in enumerate(dec.pants):
            if j not in reached and set(node.legs) & set(dec.pants[k].legs):
                reached.add(j)
                frontier.append(j)
    return len(reached) == p


def mutated(dec, rng):
    """`dec` with one random change that may or may not break it."""
    pants = [list(node.legs) for node in dec.pants]
    external, internal = set(dec.external), set(dec.internal)
    labels = sorted(external | internal) + ["new", "x y"]
    kind = rng.randrange(6)
    if kind == 0:
        pants[rng.randrange(len(pants))][rng.randrange(3)] = rng.choice(labels)
    elif kind == 1 and len(pants) > 1:
        pants.pop(rng.randrange(len(pants)))
    elif kind == 2:
        pants.append(list(rng.choice(pants)))
    elif kind == 3:
        a, b = rng.randrange(len(pants)), rng.randrange(len(pants))
        i, j = rng.randrange(3), rng.randrange(3)
        pants[a][i], pants[b][j] = pants[b][j], pants[a][i]
    elif kind == 4:
        label = rng.choice(labels)
        external, internal = external ^ {label}, internal - {label}
    else:
        label = rng.choice(labels)
        internal, external = internal ^ {label}, external - {label}
    try:
        nodes = tuple(Pants(tuple(legs)) for legs in pants)
    except LabelError:  # one label on all three legs
        return dec
    return PantsDecomposition(nodes, frozenset(external), frozenset(internal))


def test_validate_agrees_with_every_check():
    rng = random.Random(6)
    verdicts = Counter()
    for dec in decompositions_up_to(3, 4, rewrites=1):
        for _ in range(40):
            broken = mutated(mutated(dec, rng), rng) if rng.random() < 0.5 \
                else mutated(dec, rng)
            expected = validates_fully(broken)
            assert (broken.validate() == []) == expected, str(broken)
            verdicts[expected] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


class TestValidateOnce:
    """Each decomposition on the way to a tensor is validated exactly once,
    and tensors built inside the functor skip the public constructor."""

    def counted(self, monkeypatch):
        validated, built = [], []
        validate, init = PantsDecomposition.validate, LabeledTensor.__init__

        def counting_validate(self):
            validated.append(self)
            return validate(self)

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PantsDecomposition, "validate", counting_validate)
        monkeypatch.setattr(LabeledTensor, "__init__", counting_init)
        return validated, built

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_invariant(self, monkeypatch, strategy):
        surface = Surface.connected(3)  # closed, so it is cut into pants
        check_relations(ROTATED)  # the stored report is built outside the count
        decompose_by(monkeypatch, strategy)
        expected = invariant(ROTATED, surface)
        validated, built = self.counted(monkeypatch)
        assert invariant(ROTATED, surface) == expected
        assert len(validated) == 1
        assert built == []

    def test_normal_form_neither_cuts_nor_validates(self, monkeypatch):
        surface = Surface.connected(2, "+a,-b,+c")
        check_relations(ROTATED)
        expected = invariant(ROTATED, surface)  # also stores the handle matrix
        validated, built = self.counted(monkeypatch)
        assert invariant(ROTATED, surface) == expected
        assert validated == []
        assert built == []

    def test_moves_suite(self, monkeypatch):
        evaluated = []
        original = functor.invariant_of_decomposition

        def recording(data, decomposition, boundary):
            evaluated.append(decomposition)
            return original(data, decomposition, boundary)

        validated, _ = self.counted(monkeypatch)
        monkeypatch.setattr(functor, "invariant_of_decomposition", recording)
        report = verify_decomposition_invariance(ROTATED, 2, 3, trials=3, seed=0)
        assert report.passed and len(evaluated) > 20
        assert [id(d) for d in validated] == [id(d) for d in evaluated]

    def test_invalid_decomposition_still_rejected(self):
        broken = PantsDecomposition(
            (Pants(("a", "b", "c")),), frozenset({"a", "b"}), frozenset({"c"}))
        with pytest.raises(TqftError, match="invalid decomposition"):
            invariant_of_decomposition(D2, broken, circles("+a,+b"))
        rewritten = random_rewrite(broken, random.Random(0))
        with pytest.raises(TqftError, match="invalid decomposition"):
            invariant_of_decomposition(D2, rewritten, circles("+a,+b"))


class Built(Exception):
    pass


class TestGenusBudget:
    """A genus past MAX_GENUS is refused before any pants are built."""

    @pytest.fixture
    def refuse_building(self, monkeypatch):
        def refuse(*args):
            raise Built
        monkeypatch.setattr(functor, "_internal_names", refuse)

    def test_edges(self, refuse_building):
        assert MAX_GENUS == 10_000
        message = f"genus {MAX_GENUS + 1} exceeds the budget of {MAX_GENUS}"
        for strategy in STRATEGIES:
            with pytest.raises(Built):
                decompose(MAX_GENUS, 1, strategy)
            with pytest.raises(DimensionError, match=message):
                decompose(MAX_GENUS + 1, 1, strategy)
        with pytest.raises(DimensionError, match="budget"):
            pants_decomposition(10 ** 100, 0)

    def test_invariant_and_closed_invariant(self, refuse_building):
        for genus in (MAX_GENUS + 1, 10 ** 100):
            with pytest.raises(DimensionError, match="budget"):
                closed_invariant(D2, genus)
            with pytest.raises(DimensionError, match="budget"):
                invariant(D2, Surface.connected(genus, "+a,-b"))
        with pytest.raises(DimensionError, match=(
                f"^genus {MAX_GENUS + 1} exceeds the budget of {MAX_GENUS}$")):
            invariant(ROTATED, Surface.connected(MAX_GENUS + 1, "+a"))


class TestExchangeMoves:
    def test_moves_exist_iff_two_nodes_share_a_circle(self):
        assert exchange_moves(pants_decomposition(0, 3)) == []
        assert exchange_moves(pants_decomposition(1, 1)) == []
        assert exchange_moves(pants_decomposition(0, 4)) != []

    def test_apply_preserves_validity_and_shape(self):
        rng = random.Random(3)
        for g, n in [(0, 4), (1, 2), (2, 0), (2, 2), (3, 4)]:
            dec = pants_decomposition(g, n)
            for _ in range(30):
                move = rng.choice(exchange_moves(dec))
                dec = apply_exchange(dec, move)
                assert dec.validate() == []
                assert dec.genus == g
                assert dec.boundary_count == n

    def test_four_holed_sphere_regrouping(self):
        dec = pants_decomposition(0, 4, labels=["i", "j", "l", "m"])
        move = exchange_moves(dec)[0]
        regrouped = apply_exchange(dec, move)
        assert sorted(p.legs for p in regrouped.pants) != \
            sorted(p.legs for p in dec.pants)

    def test_random_rewrite_is_deterministic(self):
        dec = pants_decomposition(2, 2)
        a = random_rewrite(dec, random.Random(42), moves=5)
        b = random_rewrite(dec, random.Random(42), moves=5)
        assert a == b


class TestInvariant:
    def test_empty_surface(self):
        assert invariant(D2, Surface.empty()).entries == (1,)

    def test_disk_is_the_rank1_generator(self):
        for data in (D2, ROTATED):
            tensor = invariant(data, Surface.disk("+a"))
            assert tensor.entries == data.d.entries
            assert tensor.indices == (SignedIndex("a", PLUS, 2),)

    def test_disk_with_reversed_circle_keeps_entries(self):
        tensor = invariant(D2, Surface.disk("-a"))
        assert tensor.entries == D2.d.entries
        assert tensor.indices[0].sign is MINUS

    def test_annulus_and_sphere_and_torus(self):
        assert invariant(D2, Surface.sphere()).entries == (5,)
        assert invariant(D2, Surface.torus()).entries == (2,)
        annulus = invariant(D2, Surface.annulus("-a,+b"))
        assert annulus.entries == annulus_tensor(D2).entries
        for data in (D2, ROTATED):
            # c[i,j] = sum_k d[k] p[k,i,j]
            n = data.dimension
            oracle = tuple(
                sum((data.d_entry(k) * data.p_entry(k, i, j) for k in range(n)), Fraction(0))
                for i, j in itertools.product(range(n), repeat=2))
            assert invariant(data, Surface.annulus("-a,+b")).entries == oracle

    def test_one_holed_torus_matches_self_contraction_oracle(self):
        # cutting the handle of a one-holed torus leaves one pants whose two
        # matching legs are traced: h[i] = sum_j p[i,j,j]
        for data in (D2, ROTATED):
            tensor = invariant(data, Surface.connected(1, "+a"))
            n = data.dimension
            oracle = tuple(
                sum((data.p_entry(i, j, j) for j in range(n)), Fraction(0))
                for i in range(n))
            assert tensor.entries == oracle

    @pytest.mark.parametrize("genus, count", [(0, 23), (2, 23), (0, 30)])
    def test_wide_boundary_over_the_entry_budget(self, genus, count):
        surface = Surface.connected(genus, ",".join(f"+a{k}" for k in range(count)))
        with pytest.raises(DimensionError, match=(
                f"^a tensor with {count} indices of dimension 2 "
                f"exceeds the budget of 4194304 entries$")):
            invariant(D2, surface)

    def test_genus2_dim1_matches_bruteforce_contraction(self):
        # two pants glued along three circles: sum_{ijk} p[i,j,k]^2
        data = D1_T2
        oracle = sum(
            (data.p_entry(i, j, k) ** 2
             for i, j, k in itertools.product(range(1), repeat=3)),
            Fraction(0))
        assert oracle == Fraction(1, 4)
        assert closed_invariant(data, 2) == oracle

    def test_genus2_dim2_matches_bruteforce_contraction(self):
        data = D2
        n = data.dimension
        oracle = sum(
            (data.p_entry(i, j, k) * data.p_entry(i, j, k)
             for i, j, k in itertools.product(range(n), repeat=3)),
            Fraction(0))
        assert closed_invariant(data, 2) == oracle == Fraction(5, 4)

    def test_strategies_agree(self):
        boundary = circles("+a,-b")
        chain, alternate = (
            invariant_of_decomposition(D2, decompose(2, 2, strategy, ["a", "b"]), boundary)
            for strategy in STRATEGIES)
        assert chain == alternate
        assert chain == invariant(D2, Surface.connected(2, boundary))  # the normal form

    def test_components_multiply(self):
        s1 = Surface.disk("+a")
        s2 = Surface.connected(1, "+b")
        union = s1.disjoint_union(s2)
        assert invariant(D2, union) == \
            invariant(D2, s1).tensor_product(invariant(D2, s2))

    def test_external_order_follows_boundary_order(self):
        surface = Surface.connected(1, "+x,+q,+a")
        assert invariant(D2, surface).labels == ("x", "q", "a")

    def test_refuses_bad_data_by_default(self):
        with pytest.raises(RelationError):
            invariant(bad_exchange_data(), Surface.pants())

    def test_override_for_bad_data(self):
        tensor = invariant(bad_exchange_data(), Surface.pants("+a,+b,+c"),
                           require_relations=False)
        assert tensor.rank == 3

    def test_invalid_surface_rejected(self):
        broken = Surface.of(
            ConnectedSurface(0, PLUS, circles("+a")),
            ConnectedSurface(0, PLUS, circles("+a")))
        with pytest.raises(LabelError):
            invariant(D2, broken)

    def test_entries_fully_symmetric_on_connected_surface(self):
        surface = Surface.connected(1, "+a,+b,+c")
        tensor = invariant(D2, surface)
        values = dict(zip(tensor.assignments(), tensor.entries))
        for assign in values:
            for perm in itertools.permutations(range(3)):
                permuted = tuple(assign[k] for k in perm)
                assert values[assign] == values[permuted]

    def test_entries_independent_of_boundary_permutation(self):
        base = Surface.connected(2, "+a,-b,+c")
        shuffled = Surface.of(ConnectedSurface(2, PLUS, circles("-b,+c,+a")))
        assert invariant(D2, base).canonical().flip_signs().entries == \
            invariant(D2, shuffled).canonical().flip_signs().entries

    def test_entries_independent_of_orientations(self):
        plain = Surface.connected(1, "+a,+b")
        flipped = Surface.of(ConnectedSurface(1, MINUS, circles("-a,+b")))
        a = invariant(D2, plain)
        b = invariant(D2, flipped)
        assert a.entries == b.entries
        assert [ix.sign for ix in b.indices] == [MINUS, PLUS]

    def test_reversed_surface_flips_all_signs_only(self):
        surface = Surface.connected(1, "+a,-b")
        a = invariant(D2, surface)
        b = invariant(D2, surface.reverse_orientation())
        assert b == a.flip_signs()


HOUSEHOLDER4 = conjugated([1, 2, Fraction(-1, 3), 5], reflection([1, 2, -1, 3]))
# Seeded good data of dim 1..5, degenerate and dense ones among them.
GOOD = [good_data(random.Random(f"good data {k}")) for k in range(12)]


def assert_shared_per_multiset(tensor):
    """Entries whose indices form the same multiset are one object."""
    ids = {}
    for assignment, value in zip(tensor.assignments(), tensor.entries):
        ids.setdefault(tuple(sorted(assignment)), set()).add(id(value))
    assert all(len(group) == 1 for group in ids.values())


def chain_invariant(data, genus, boundary):
    """The pants network of the chain, or of the fixed network of a shape
    without one: the oracle of the normal form."""
    if (genus, len(boundary)) in EXCEPTIONAL:
        rename = {f"b{k + 1}": c.label for k, c in enumerate(boundary)}
        nodes = [[rename.get(leg, leg) for leg in legs]
                 for legs in EXCEPTIONAL[genus, len(boundary)]]
        return _network_invariant(data, nodes, boundary)
    decomposition = pants_decomposition(genus, len(boundary),
                                        labels=[c.label for c in boundary])
    return invariant_of_decomposition(data, decomposition, boundary)


class TestNormalForm:
    """Surfaces with a boundary on rational data whose stored relation report
    passed are read off the Frobenius algebra; everything else is cut into
    pants."""

    @pytest.mark.parametrize("data", [
        diagonal_family([Fraction(-2)]), D2,
        diagonal_family([Fraction(2), Fraction(-1, 3), Fraction(5)]),
        diagonal_family([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-7)]),
        ROTATED, HOUSEHOLDER4, *GOOD], ids=["diag1", "diag2", "diag3", "diag4", "rotated",
                                            "householder4", *(f"good{k}" for k in range(12))])
    def test_equals_the_chain_network(self, monkeypatch, data):
        assert check_relations(data).passed
        taken = []
        normal_form = functor._normal_form
        monkeypatch.setattr(functor, "_normal_form",
                            lambda *args: taken.append(args) or normal_form(*args))
        rng = random.Random(f"normal form {data.dimension}")
        # at most 4**6 entries, so dim 5 stops at 5 circles
        counts = [n for n in range(1, 7) if data.dimension ** n <= 4 ** 6]
        for genus in range(4):
            for count in counts:
                boundary = tuple(BoundaryCircle(f"b{k}", rng.choice((PLUS, MINUS)))
                                 for k in rng.sample(range(10), count))
                got = invariant(data, Surface.connected(genus, boundary))
                expected = chain_invariant(data, genus, boundary)
                assert got.indices == expected.indices, (genus, count)
                assert got.entries == expected.entries, (genus, count)
                assert_shared_per_multiset(got)
        assert len(taken) == 4 * len(counts)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(good_data_by_seed(max_dim=4), st.integers(0, 2),
           st.lists(st.sampled_from((PLUS, MINUS)), min_size=1, max_size=5))
    def test_equals_the_chain_network_on_drawn_data(self, data, genus, signs):
        assert check_relations(data).passed
        boundary = tuple(BoundaryCircle(f"b{k}", sign) for k, sign in enumerate(signs))
        got = functor._normal_form(data, genus, boundary)
        expected = chain_invariant(data, genus, boundary)
        assert got.indices == expected.indices
        assert got.entries == expected.entries
        assert_shared_per_multiset(got)

    # functor.contract_between calls for genus 0..2 (rows) and 1..7 circles
    # (columns): one per nonzero row of a distinct index multiset of 2..n-2
    # indices, plus the products that apply M^genus by repeated squaring.
    @pytest.mark.parametrize("data, calls", [
        (diagonal_family([1, 2, 3, 4]), [[0, 0, 0, 4, 8, 12, 16],
                                         [1, 1, 1, 5, 9, 13, 17],
                                         [2, 2, 2, 6, 10, 14, 18]]),
        (HOUSEHOLDER4, [[0, 0, 0, 10, 30, 65, 121],
                        [1, 1, 1, 11, 31, 66, 122],
                        [2, 2, 2, 12, 32, 67, 123]]),
    ], ids=["diag4", "householder4"])
    def test_engine_calls(self, monkeypatch, data, calls):
        assert check_relations(data).passed
        made = []
        contract_between = functor.contract_between
        monkeypatch.setattr(functor, "contract_between",
                            lambda *args: made.append(args) or contract_between(*args))
        counted = []
        for genus in range(3):
            counted.append([])
            for count in range(1, 8):
                made.clear()
                surface = Surface.connected(genus, ",".join(f"+b{k}" for k in range(count)))
                assert_shared_per_multiset(invariant(data, surface))
                counted[-1].append(len(made))
        assert counted == calls

    def test_good_data_include_degenerate_and_dense_data(self):
        degenerate = [list(annulus_tensor(data).entries)
                      != list(itertools.chain(*identity(data.dimension))) for data in GOOD]
        dense = [any(v for v, ijk in zip(data.p.entries, data.p.assignments())
                     if len(set(ijk)) > 1) for data in GOOD]
        assert 0 < sum(degenerate) < len(GOOD) and 0 < sum(dense) < len(GOOD)
        assert any(x and y for x, y in zip(degenerate, dense))

    def test_equal_entries_share_one_object(self):
        tensor = invariant(HOUSEHOLDER4, Surface.connected(1, "+a,+b,+c,+d"))
        assert len({id(v) for v in tensor.entries}) == len(set(tensor.entries)) == 35

    @pytest.fixture
    def cut(self, monkeypatch):
        """Fail any call of the normal form; return the list of decompositions
        the pants path evaluates."""
        def refuse(*args):
            raise AssertionError("normal form taken")

        evaluated = []
        original = functor.invariant_of_decomposition

        def recording(data, decomposition, boundary):
            evaluated.append(decomposition)
            return original(data, decomposition, boundary)

        monkeypatch.setattr(functor, "_normal_form", refuse)
        monkeypatch.setattr(functor, "invariant_of_decomposition", recording)
        return evaluated

    def test_bad_data_is_cut(self, cut):
        data = bad_exchange_data()
        assert not check_relations(data).passed
        invariant(data, Surface.connected(1, "+a,-b"), require_relations=False)
        assert len(cut) == 1

    def test_complex_data_is_cut(self, cut):
        assert check_relations(ROTATED_COMPLEX).passed
        invariant(ROTATED_COMPLEX, Surface.connected(1, "+a,-b"))
        assert len(cut) == 1

    def test_unchecked_data_is_cut_and_stays_unchecked(self, cut):
        data = conjugated([1, 3], rotation(Fraction(3, 5), Fraction(4, 5)))
        invariant(data, Surface.connected(1, "+a,-b"), require_relations=False)
        assert len(cut) == 1
        assert set(data._reports) == {"symmetry"}

    def test_closed_surfaces_are_cut(self, cut):
        assert check_relations(ROTATED).passed
        closed_invariant(ROTATED, 2)
        assert len(cut) == 1


class TestInvariantOfDecomposition:
    def test_rejects_label_mismatch(self):
        dec = pants_decomposition(0, 3, labels=["a", "b", "c"])
        with pytest.raises(LabelError):
            invariant_of_decomposition(D2, dec, circles("+x,+y,+z"))

    def test_matches_invariant(self):
        boundary = circles("+a,+b,+c")
        dec = pants_decomposition(1, 3, labels=["a", "b", "c"])
        surface = Surface.of(ConnectedSurface(1, PLUS, boundary))
        assert invariant_of_decomposition(D2, dec, boundary) == \
            invariant(D2, surface)


class TestClosedInvariant:
    @pytest.mark.parametrize("t", [Fraction(1), Fraction(2), Fraction(1, 3),
                                   Fraction(-2)])
    def test_dim1_closed_form(self, t):
        data = diagonal_family([t])
        for g in range(7):
            assert closed_invariant(data, g) == t ** (2 - 2 * g)

    def test_genus_one_is_the_torus_trace(self):
        for data in (D2, diagonal_family([2, 3, 5])):
            n = data.dimension
            oracle = sum((data.d_entry(k) * data.p_entry(k, i, i)
                          for k in range(n) for i in range(n)), Fraction(0))
            assert closed_invariant(data, 1) == oracle

    def test_diagonal_family_sums_powers(self):
        assert closed_invariant(D2, 2) == Fraction(5, 4)  # 1 + 1/4

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            closed_invariant(D2, -1)

    def test_genus_that_is_not_an_integer_rejected(self):
        with pytest.raises(LabelError, match="genus 1.5 is not an integer"):
            closed_invariant(D2, 1.5)
        with pytest.raises(LabelError, match="genus '3' is not an integer"):
            closed_invariant(D2, "3")
        with pytest.raises(LabelError, match="genus 2.5 is not an integer"):
            invariant(D2, Surface.connected(2.5))


class TestApplyGluing:
    def test_two_disks_to_sphere(self):
        t = invariant(D2, Surface.disk("-a").disjoint_union(Surface.disk("+b")))
        glued = apply_gluing(D2, t, [("a", "b")])
        assert glued.entries == (5,)

    def test_annulus_trace_is_torus(self):
        c = invariant(D2, Surface.annulus("-a,+b"))
        assert apply_gluing(D2, c, [("a", "b")]).entries == \
            invariant(D2, Surface.torus()).entries

    def test_two_annuli_compose_to_one(self):
        s = Surface.annulus("-a,+b").disjoint_union(Surface.annulus("-c,+d"))
        t = invariant(D2, s)
        glued = apply_gluing(D2, t, [("b", "c")])
        assert glued.entries == annulus_tensor(D2).entries

    def test_matches_glued_surface_invariant(self):
        s = Surface.disk("+a").disjoint_union(Surface.pants("-b,-c,+d"))
        spec = GlueSpec((("a", "b"), ("c", "d")))
        via_tensor = apply_gluing(D2, invariant(D2, s), spec)
        via_surface = invariant(D2, s.glue(spec))
        assert via_tensor.canonical() == via_surface.canonical()

    def test_pair_order_immaterial(self):
        s = Surface.pants("+a,+b,+c").disjoint_union(Surface.pants("-x,-y,-z"))
        t = invariant(D2, s)
        pairs = [("a", "x"), ("b", "y"), ("c", "z")]
        expected = apply_gluing(D2, t, pairs)
        for perm in itertools.permutations(pairs):
            assert apply_gluing(D2, t, list(perm)) == expected

    def test_orientation_mismatch(self):
        t = invariant(D2, Surface.pants("+a,+b,+c"))
        with pytest.raises(OrientationError):
            apply_gluing(D2, t, [("a", "b")])

    def test_dimension_checked(self):
        t = invariant(D2, Surface.disk("+a"))
        with pytest.raises(Exception):
            apply_gluing(diagonal_family([1, 2, 3]), t, [])


class TestApplyIsomorphism:
    def test_identity(self):
        t = invariant(D2, Surface.pants("+a,+b,+c"))
        assert apply_isomorphism(t, [0, 1, 2]) == t

    def test_pants_tensor_fully_symmetric(self):
        t = invariant(D2, Surface.pants("+a,+b,+c"))
        for perm in itertools.permutations(range(3)):
            assert apply_isomorphism(t, perm).entries == t.entries

    def test_flip_turns_disk_into_its_mirror(self):
        d = invariant(D2, Surface.disk("+a"))
        flipped = apply_isomorphism(d, [0], flips={"a"})
        assert flipped.entries == d.entries
        assert flipped.indices[0].sign is MINUS


class TestNonDiagonalData:
    def test_rotation_preserves_relations_and_is_dense(self):
        assert check_relations(ROTATED).passed
        nonzero = [v for v in ROTATED.p.entries if v]
        assert len(nonzero) == 8  # every entry filled

    def test_invariants_match_the_unrotated_family(self):
        for g in range(4):
            assert closed_invariant(ROTATED, g) == closed_invariant(D2, g)

    def test_all_suites_pass_on_dense_data(self):
        assert verify_decomposition_invariance(ROTATED, 2, 3, trials=5,
                                               seed=77).passed
        assert verify_functoriality(ROTATED, trials=25, seed=78).passed
        assert verify_monoidal(ROTATED, trials=25, seed=79).passed


class TestVerifyDecompositionInvariance:
    def test_diagonal_data_passes(self):
        report = verify_decomposition_invariance(D2, 2, 3, trials=5, seed=11)
        assert report.passed
        assert len(report.checks) > 0

    def test_shapes_covered(self):
        report = verify_decomposition_invariance(D2, 2, 2, trials=1, seed=0)
        labels = {c.label.split(" chain")[0] for c in report.checks}
        assert "(g=0, n=4)" not in labels  # n capped at 2
        assert "(g=1, n=2)" in labels
        assert "(g=2, n=0)" in labels

    def test_negative_control_finds_four_holed_counterexample(self):
        report = verify_decomposition_invariance(
            bad_exchange_data(), 0, 4, trials=2, seed=5,
            require_relations=False)
        assert not report.passed
        assert any("(g=0, n=4)" in c.label for c in report.failures)

    def test_bad_data_rejected_without_override(self):
        with pytest.raises(RelationError):
            verify_decomposition_invariance(bad_exchange_data(), 1, 2, 1)

    @pytest.mark.parametrize("suite", [
        lambda data, trials, **kw: verify_decomposition_invariance(data, 1, 2, trials, **kw),
        verify_functoriality, verify_monoidal], ids=["moves", "functor", "monoidal"])
    def test_negative_trials_rejected(self, suite):
        for data, kw in [(D2, {}), (bad_exchange_data(), {"require_relations": False})]:
            with pytest.raises(ValueError, match="^trials must be non-negative, got -1$"):
                suite(data, -1, **kw)
        # with no trials, only moves still checks something (the alternate cut)
        report = suite(D2, 0)
        assert report.passed == (report.name == "moves") == bool(report.checks)

    def test_report_serializes_line_oriented(self):
        report = verify_decomposition_invariance(D2, 1, 2, trials=1, seed=0)
        lines = report.to_text().splitlines()
        assert lines
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)


class TestVerifyFunctoriality:
    def test_worked_two_stage_example(self):
        # disk into a pants, then close the annulus; equals the one-shot
        # composite gluing, as tensors and as surfaces
        start = Surface.disk("+a").disjoint_union(Surface.pants("-b,-c,+d"))
        first = GlueSpec((("a", "b"),))
        second = GlueSpec((("c", "d"),))
        z = invariant(D2, start)
        stepwise = apply_gluing(D2, apply_gluing(D2, z, first), second)
        one_shot = apply_gluing(D2, z, compose_glue(first, second))
        assert stepwise == one_shot
        assert stepwise.entries == invariant(D2, Surface.torus()).entries

    def test_empty_spec_is_neutral(self):
        z = invariant(D2, Surface.disk("+a"))
        assert apply_gluing(D2, z, GlueSpec()) == z

    def test_random_trials_pass(self):
        report = verify_functoriality(D2, trials=50, seed=13)
        assert report.passed
        assert len(report.checks) == 50

    def test_deterministic_given_seed(self):
        a = verify_functoriality(D2, trials=10, seed=3).to_text()
        b = verify_functoriality(D2, trials=10, seed=3).to_text()
        assert a == b


class TestVerifyMonoidal:
    def test_empty_right_factor(self):
        z = invariant(D2, Surface.disk("+a"))
        one = invariant(D2, Surface.empty())
        assert z.tensor_product(one) == z

    def test_two_disks_give_outer_product(self):
        s1, s2 = Surface.disk("-a"), Surface.disk("+b")
        assert invariant(D2, s1.disjoint_union(s2)) == \
            invariant(D2, s1).tensor_product(invariant(D2, s2))

    def test_random_trials_pass(self):
        report = verify_monoidal(D2, trials=50, seed=17)
        assert report.passed
        assert len(report.checks) == 50


class TestHermitianAxiom:
    def surfaces(self, count, seed):
        rng = random.Random(seed)
        return [random_surface(rng, prefix=f"w{k}_", max_total_boundary=4)
                for k in range(count)]

    def reversed_matches_conjugate(self, data, surface):
        mirrored = invariant(data, surface.reverse_orientation(),
                             require_relations=False)
        original = invariant(data, surface, require_relations=False)
        return mirrored.flip_signs().canonical().equals(
            original.conjugate_entries().canonical())

    def test_real_data_satisfies_reversal_conjugation(self):
        data = diagonal_family([1.5, 2.0])
        for surface in self.surfaces(10, seed=23):
            assert self.reversed_matches_conjugate(data, surface)

    def test_rational_data_always_satisfies_it(self):
        for surface in self.surfaces(10, seed=29):
            assert self.reversed_matches_conjugate(D2, surface)

    def test_imaginary_disk_violates_it(self):
        data = TqftData([1j], [-1j], COMPLEX)
        assert check_relations(data).passed
        disk = Surface.disk("+a")
        assert not self.reversed_matches_conjugate(data, disk)
        t = invariant(data, disk)
        assert not t.conjugate_entries().equals(t)


class TestRandomGenerators:
    def test_random_surface_is_valid_and_seeded(self):
        a = random_surface(random.Random(1), prefix="g")
        b = random_surface(random.Random(1), prefix="g")
        assert a == b
        assert a.validate() == []

    def test_random_glue_spec_is_legal(self):
        rng = random.Random(2)
        for _ in range(50):
            surface = random_surface(rng, prefix=f"q{_}_")
            spec = random_glue_spec(rng, surface)
            surface.glue(spec)  # must not raise


def scan_planner(tensors, pairs):
    """Reference planner: rescans every tensor's labels for every pending
    pair on every step.  Slow, but plainly the greedy rule: smallest result
    rank first, ties to the group whose first pending pair comes first."""
    tensors = list(tensors)
    pending = list(pairs)

    def owner(label):
        for k, t in enumerate(tensors):
            if label in t.labels:
                return k
        raise LabelError(f"no tensor owns index {label}")

    while pending:
        groups = {}
        for a, b in pending:
            ta, tb = owner(a), owner(b)
            groups.setdefault((min(ta, tb), max(ta, tb)), []).append((a, b))
        best = None
        for (ta, tb), grouped in groups.items():
            if ta == tb:
                rank = tensors[ta].rank - 2 * len(grouped)
            else:
                rank = tensors[ta].rank + tensors[tb].rank - 2 * len(grouped)
            if best is None or rank < best[0]:
                best = (rank, ta, tb, grouped)
        _, ta, tb, grouped = best
        if ta == tb:
            tensors[ta] = functor.contract_within(tensors[ta], grouped)
        else:
            tensors[ta] = functor.contract_between(tensors[ta], tensors[tb], grouped)
            del tensors[tb]
        done = set(grouped)
        pending = [pair for pair in pending if pair not in done]
    result = tensors[0]
    for extra in tensors[1:]:
        result = result.tensor_product(extra)
    return result


def decompositions_up_to(g_max, n_max, rewrites=3):
    for g in range(g_max + 1):
        for n in range(n_max + 1):
            if (g, n) in EXCEPTIONAL or 2 * g - 2 + n < 1:
                continue
            chain = decompose(g, n, "chain")
            yield chain
            yield decompose(g, n, "alternate")
            for t in range(rewrites):
                yield random_rewrite(chain, random.Random(f"plan:{g}:{n}:{t}"),
                                     moves=1 + 2 * t)


def brute_force_moves(decomposition):
    moves = []
    for a, b in itertools.combinations(range(len(decomposition.pants)), 2):
        legs_a, legs_b = decomposition.pants[a].legs, decomposition.pants[b].legs
        for label in sorted(set(legs_a) & set(legs_b)):
            if legs_a.count(label) == 1 and legs_b.count(label) == 1:
                moves += [(a, b, label, 0), (a, b, label, 1)]
    return moves


class TestPlanner:
    def recorded(self, monkeypatch, planner, tensors, pairs):
        calls = []
        within, between = functor.contract_within, functor.contract_between

        def record_within(tensor, grouped):
            calls.append(("within", tensor.labels, tuple(grouped)))
            return within(tensor, grouped)

        def record_between(left, right, grouped):
            calls.append(("between", left.labels, right.labels, tuple(grouped)))
            return between(left, right, grouped)

        with monkeypatch.context() as patch:
            patch.setattr(functor, "contract_within", record_within)
            patch.setattr(functor, "contract_between", record_between)
            result = planner(tensors, pairs)
        return calls, result

    @pytest.mark.parametrize("data", [ROTATED, ROTATED_COMPLEX],
                             ids=["rational", "complex"])
    def test_same_plan_as_the_scan_planner(self, monkeypatch, data):
        closed = [pants_decomposition(g, 0) for g in (8, 24)]  # closed-genus sizes
        closed += [random_rewrite(chain, random.Random(f"plan:closed:{k}"), moves=7)
                   for k, chain in enumerate(closed)]
        for decomposition in itertools.chain(decompositions_up_to(5, 5), closed):
            tensors, pairs = _pants_network(
                data, [node.legs for node in decomposition.pants])
            expected_calls, expected = self.recorded(
                monkeypatch, scan_planner, tensors, pairs)
            calls, result = self.recorded(
                monkeypatch, _contract_network, tensors, pairs)
            assert calls == expected_calls, str(decomposition)
            assert len(calls) >= len(decomposition.pants) - 1
            assert result.indices == expected.indices
            assert result.entries == expected.entries

    def test_exchange_moves_match_brute_force(self):
        for decomposition in decompositions_up_to(4, 4):
            assert exchange_moves(decomposition) == brute_force_moves(decomposition)


class TestScale:
    """Large genus with exact oracles; a planner or move enumeration that
    grows faster than about linearly in genus makes these slow."""

    @pytest.mark.parametrize("data", [D2, ROTATED], ids=["diagonal", "rotated"])
    def test_closed_genus_200_sums_powers(self, data):
        g = 200
        assert closed_invariant(data, g) == 1 + Fraction(2) ** (2 - 2 * g)

    def test_alternate_equals_chain_at_genus_200(self):
        boundary = circles("+a,-b")
        chain, alternate = (
            invariant_of_decomposition(ROTATED, decompose(200, 2, strategy, ["a", "b"]),
                                       boundary)
            for strategy in STRATEGIES)
        assert alternate == chain
        assert invariant(ROTATED, Surface.connected(200, boundary)) == chain  # the normal form


class TestTensorMismatch:
    def rank6(self, offset):
        indices = [SignedIndex(f"x{k}", PLUS, 3) for k in range(6)]
        return LabeledTensor(indices, [Fraction(k % 7 + (k % 5 == 0) * offset)
                                       for k in range(3 ** 6)])

    def test_detail_is_capped_and_counts_every_difference(self):
        left, right = self.rank6(0), self.rank6(1)
        differing = sum(1 for k in range(3 ** 6) if k % 5 == 0)
        lines = _tensor_mismatch(left, right).splitlines()
        assert lines[0] == f"got {left!r} versus {right!r}"
        assert lines[1:-1] == [
            f"at {' '.join(str(v + 1) for v in assign)}: {k % 7} versus {k % 7 + 1}"
            for k, assign in list(zip(range(3 ** 6), left.assignments()))[::5][
                :MISMATCH_SHOWN]]
        assert lines[-1] == f"{differing} of 729 entries differ"
        assert differing > MISMATCH_SHOWN

    def test_signature_difference_reported_without_entries(self):
        left = self.rank6(0)
        detail = _tensor_mismatch(left, left.flip_signs(["x0"]))
        assert detail.endswith("index signatures differ")
        assert "\n" not in detail

    def test_complex_differences_use_the_tolerance(self):
        a = LabeledTensor([SignedIndex("a", PLUS, 2)], [1j, 2j], COMPLEX)
        b = LabeledTensor([SignedIndex("a", PLUS, 2)], [1j + 1e-12, 3j], COMPLEX)
        lines = _tensor_mismatch(a, b).splitlines()
        assert lines[1:] == ["at 2: 0+2i versus 0+3i", "1 of 2 entries differ"]

    def test_failing_suite_detail_is_bounded(self):
        report = verify_decomposition_invariance(
            bad_exchange_data(), 0, 6, trials=2, seed=5, require_relations=False)
        assert report.failures
        for check in report.failures:
            assert len(check.to_text().splitlines()) <= MISMATCH_SHOWN + 2

    def test_failing_moves_line_does_not_grow_with_the_pants(self):
        def first_failure(n):
            report = verify_decomposition_invariance(
                bad_exchange_data(), 0, n, trials=2, seed=5,
                require_relations=False)
            return next(c for c in report.failures if f"n={n})" in c.label)

        small, large = first_failure(4), first_failure(8)
        line = large.to_text().splitlines()[0]
        assert line == "FAIL (g=0, n=8) chain vs alternate: 2 of 6 pants nodes differ: 1 2"
        assert len(line) <= len(small.to_text().splitlines()[0])

    def test_pants_detail_is_capped_and_counts_every_node(self):
        chain = pants_decomposition(0, 22)
        rotated = PantsDecomposition(chain.pants[1:] + chain.pants[:1],
                                     chain.external, chain.internal)
        shown = " ".join(str(k) for k in range(1, MISMATCH_SHOWN + 1))
        assert _pants_mismatch(chain, rotated) == f"20 of 20 pants nodes differ: {shown}"
