import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft2d import (
    MINUS,
    PLUS,
    BoundaryCircle,
    ConnectedSurface,
    DimensionError,
    GlueSpec,
    LabelError,
    OrientationError,
    Orientation,
    ParseError,
    Surface,
    circle,
    circles,
    compose_glue,
    format_surface,
    parse_surface,
)
from tqft2d.functor import random_glue_spec, random_surface
from tqft2d.tensor import MAX_GENUS


class TestOrientation:
    def test_exactly_two_values(self):
        assert set(Orientation) == {PLUS, MINUS}

    def test_reverse_is_an_involution(self):
        for o in Orientation:
            assert o.reverse().reverse() is o
        assert PLUS.reverse() is MINUS


class TestValidation:
    def test_empty_surface_is_valid(self):
        assert Surface.empty().validate() == []

    def test_disk_is_valid(self):
        assert Surface.disk("+a").validate() == []

    def test_duplicate_label_across_components(self):
        s = Surface.of(
            ConnectedSurface(0, PLUS, circles("+a")),
            ConnectedSurface(0, PLUS, circles("-a")),
        )
        assert any("duplicate label a" in v for v in s.validate())

    def test_negative_genus_reported(self):
        s = Surface.connected(-1)
        assert any("negative genus" in v for v in s.validate())

    @pytest.mark.parametrize("genus", [2.5, 1.0, "2", None])
    def test_genus_that_is_not_an_integer_reported(self, genus):
        assert Surface.connected(genus, "+a").validate() == \
            [f"genus {genus!r} is not an integer"]
        with pytest.raises(LabelError, match="is not an integer"):
            Surface.connected(genus).require_valid()


class TestCircle:
    def test_one_circle(self):
        assert circle("+a") == BoundaryCircle("a", PLUS)
        assert circle(" -rim_2 ") == BoundaryCircle("rim_2", MINUS)

    @pytest.mark.parametrize("text", ["+a,-b", "", "a"])
    def test_anything_else_is_a_label_error(self, text):
        with pytest.raises(LabelError):
            circle(text)


class TestEuler:
    def test_disk(self):
        assert Surface.disk().euler_characteristic() == 1

    def test_torus(self):
        assert Surface.torus().euler_characteristic() == 0

    def test_pants(self):
        assert Surface.pants().euler_characteristic() == -1


class TestDisjointUnion:
    def test_empty_is_a_strict_unit(self):
        disk = Surface.disk("+a")
        assert Surface.empty().disjoint_union(disk) == disk
        assert disk.disjoint_union(Surface.empty()) == disk

    def test_two_disks(self):
        s = Surface.disk("+a").disjoint_union(Surface.disk("-b"))
        assert len(s.components) == 2
        assert s.labels() == ("a", "b")

    def test_concatenates_components(self):
        s = Surface.annulus("-a,+b").disjoint_union(Surface.pants("+c,+d,+e"))
        assert len(s.components) == 2
        assert s.labels() == ("a", "b", "c", "d", "e")

    def test_label_collision(self):
        with pytest.raises(LabelError):
            Surface.disk("+a").disjoint_union(Surface.disk("-a"))

    def test_associative(self):
        a, b, c = Surface.disk("+a"), Surface.disk("+b"), Surface.disk("+c")
        assert a.disjoint_union(b).disjoint_union(c) == a.disjoint_union(
            b.disjoint_union(c))


class TestReverseOrientation:
    def test_disk_reverses_surface_and_circles(self):
        got = Surface.disk("+a", orientation=PLUS).reverse_orientation()
        assert got == Surface.disk("-a", orientation=MINUS)

    def test_empty_is_fixed(self):
        assert Surface.empty().reverse_orientation() == Surface.empty()

    def test_involution(self):
        s = Surface.connected(2, "+a,-b")
        assert s.reverse_orientation().reverse_orientation() == s


class TestGlue:
    def test_two_disks_make_a_sphere(self):
        s = Surface.disk("-a", orientation=MINUS).disjoint_union(Surface.disk("+b"))
        glued = s.glue([("a", "b")])
        assert glued == Surface.of(ConnectedSurface(0, MINUS, ()))

    def test_annulus_self_glues_to_a_torus(self):
        glued = Surface.annulus("-a,+b").glue([("a", "b")])
        assert glued == Surface.of(ConnectedSurface(1, PLUS, ()))

    def test_disk_into_pants_hole_gives_annulus(self):
        s = Surface.disk("+a").disjoint_union(Surface.pants("-b,-c,+d"))
        glued = s.glue([("a", "b")])
        assert len(glued.components) == 1
        comp = glued.components[0]
        assert (comp.genus, comp.labels()) == (0, ("c", "d"))

    def test_euler_characteristic_is_preserved(self):
        s = Surface.disk("+a").disjoint_union(Surface.pants("-b,-c,+d"))
        assert s.glue([("a", "b")]).euler_characteristic() == s.euler_characteristic()

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            Surface.disk("+a").glue([("a", "zzz")])

    def test_same_sign_pair(self):
        s = Surface.disk("+a").disjoint_union(Surface.disk("+b"))
        with pytest.raises(OrientationError):
            s.glue([("a", "b")])

    def test_label_used_twice(self):
        s = Surface.pants("+a,-b,-c")
        with pytest.raises(LabelError):
            s.glue([("a", "b"), ("a", "c")])

    @pytest.mark.parametrize("pairs,error,message", [
        ([("a", "zzz"), ("b", "c")], LabelError, "unknown label zzz"),
        ([("zzz", "a"), ("b", "c")], LabelError, "unknown label zzz"),
        ([("b", "c"), ("a", "zzz")], OrientationError, r"cannot glue \+b to \+c"),
        ([("a", "d"), ("b", "zzz")], LabelError, "unknown label zzz"),
        ([("a", "d"), ("e", "b")], OrientationError, r"cannot glue \+e to \+b"),
    ])
    def test_first_bad_pair_decides_the_error(self, pairs, error, message):
        s = Surface.pants("+a,+b,+c").disjoint_union(Surface.annulus("-d,+e"))
        with pytest.raises(error, match=f"^{message}"):
            s.glue(pairs)

    def test_merge_keeps_first_component_orientation(self):
        s = Surface.disk("+a", orientation=PLUS).disjoint_union(
            Surface.disk("-b", orientation=MINUS))
        assert s.glue([("a", "b")]).components[0].orientation is PLUS


class TestComposeGlue:
    def test_disk_pants_then_self_glue_equals_one_shot(self):
        # gluing a disk into a pants and then closing the annulus equals
        # doing both identifications simultaneously
        start = Surface.disk("+a").disjoint_union(Surface.pants("-b,-c,+d"))
        first = GlueSpec((("a", "b"),))
        second = GlueSpec((("c", "d"),))
        stepwise = start.glue(first).glue(second)
        composite = compose_glue(first, second)
        assert composite.pairs == (("a", "b"), ("c", "d"))
        assert start.glue(composite) == stepwise
        assert stepwise == Surface.of(ConnectedSurface(1, PLUS, ()))

    def test_empty_first_is_identity(self):
        second = GlueSpec((("a", "b"),))
        assert compose_glue(GlueSpec(), second) == second

    def test_consumed_label_rejected(self):
        with pytest.raises(LabelError, match="^label a repeated in glue spec$"):
            compose_glue(GlueSpec((("a", "b"),)), GlueSpec((("a", "c"),)))


class TestTextFormat:
    def test_round_trip(self):
        s = Surface.of(
            ConnectedSurface(1, PLUS, circles("+a,-b")),
            ConnectedSurface(0, MINUS, ()),
        )
        assert parse_surface(format_surface(s)) == s

    def test_blank_file_is_empty_surface(self):
        assert parse_surface("") == Surface.empty()
        assert parse_surface("\n\n") == Surface.empty()

    def test_example_line(self):
        s = parse_surface("component orient=+ genus=1 boundary=[+a,-b]")
        comp = s.components[0]
        assert comp.genus == 1
        assert comp.boundary == circles("+a,-b")

    def test_bad_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_surface("component orient=+ genus=0 boundary=[+a]\nnonsense")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_bad_circle_reports_column(self):
        with pytest.raises(ParseError) as err:
            parse_surface("component orient=+ genus=0 boundary=[+a,*b]")
        assert err.value.line == 1
        assert err.value.column is not None

    @pytest.mark.parametrize("line", [
        "component orient=+ genus=0 boundary=[+a,*b]",
        "  component orient=+ genus=0 boundary=[ +a ,  *b ]",
        "component orient=+ genus=0 boundary=[*b]"])
    def test_bad_circle_column_points_at_the_circle(self, line):
        with pytest.raises(ParseError) as err:
            parse_surface(line)
        assert str(err.value) == f"line 1, col {line.index('*') + 1}: bad boundary circle '*b'"

    def test_genus_budget(self):
        line = "component orient=+ genus={} boundary=[+a]\n"
        assert parse_surface(line.format(MAX_GENUS)).components[0].genus == MAX_GENUS
        assert parse_surface(line.format("0" * 5000 + "7")).components[0].genus == 7
        with pytest.raises(DimensionError,
                           match=f"^genus {MAX_GENUS + 1} exceeds the budget of {MAX_GENUS}$"):
            parse_surface(line.format(MAX_GENUS + 1))
        with pytest.raises(DimensionError) as err:
            parse_surface(line.format("9" * 5000))
        assert str(err.value) == f"genus of 5000 digits exceeds the budget of {MAX_GENUS}"

    def test_negative_genus_stays_a_parse_error(self):
        for genus in ("-1", "-" + "0" * 5000 + "5", "-" + "9" * 5000):
            with pytest.raises(ParseError, match="negative genus"):
                parse_surface(f"component orient=+ genus={genus} boundary=[]\n")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError):
            parse_surface("component orient=+ genus=0 boundary=[+a,-a]")


# -- randomized properties ---------------------------------------------------

@st.composite
def surface_and_pairs(draw):
    seed = draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    surface = random_surface(rng, prefix="h", max_components=3, max_genus=2,
                             max_total_boundary=10)
    spec = random_glue_spec(rng, surface)
    return surface, list(spec.pairs)


@given(surface_and_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_glue_is_order_independent(surface_pairs, shuffler):
    surface, pairs = surface_pairs
    shuffled = list(pairs)
    shuffler.shuffle(shuffled)

    def unordered(glued):
        # each component with its circles in any order; components in any order
        return sorted((comp.genus, sorted(map(str, comp.boundary)), str(comp.orientation))
                      for comp in glued.components)

    assert unordered(surface.glue(pairs)) == unordered(surface.glue(shuffled))


@given(surface_and_pairs())
@settings(max_examples=80)
def test_glue_preserves_euler_characteristic(surface_pairs):
    surface, pairs = surface_pairs
    assert surface.glue(pairs).euler_characteristic() == surface.euler_characteristic()


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50)
def test_reverse_orientation_involution(seed):
    surface = random_surface(random.Random(seed), prefix="r")
    assert surface.reverse_orientation().reverse_orientation() == surface
