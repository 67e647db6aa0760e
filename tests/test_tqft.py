import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from tqft2d import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    MINUS,
    PLUS,
    RATIONAL,
    DimensionError,
    LabeledTensor,
    ParseError,
    RelationError,
    SignedIndex,
    Surface,
    TqftData,
    annulus_tensor,
    base_invariants,
    check_relations,
    diagonal_family,
    format_tqft,
    grid_search_dim1,
    hermitian_check,
    invariant,
    parse_tqft,
)
import tqft2d.tqft as tqft_module
from tqft2d.tensor import MAX_ENTRIES, SCALAR_SHOWN, contract_between, contract_within
from tqft2d.tqft import RELATION_NAMES

from good_data import conjugated, good_data, non_split, nonzero_values, random_rotation


def symmetric_p(n, assignments):
    """Dense p entries from {(i,j,k): value} closed under slot permutations."""
    entries = [Fraction(0)] * n ** 3
    for (i, j, k), value in assignments.items():
        for a, b, c in set(itertools.permutations((i, j, k))):
            entries[(a * n + b) * n + c] = Fraction(value)
    return entries


class TestTqftData:
    def test_symmetry_enforced_at_construction(self):
        n = 2
        p = [Fraction(0)] * 8
        p[(0 * n + 0) * n + 1] = Fraction(1)  # p(1,1,2) set without its orbit
        with pytest.raises(RelationError):
            TqftData([Fraction(1), Fraction(1)], p)

    # Each p has one entry set at each 0-based slot triple listed.  In the
    # first, the first bad triple, (1,2,2), shows only when the first two
    # slots swap (swapping the last two first shows (2,1,2)); in the second,
    # (1,1,2) shows only when the last two swap (the first two, (1,2,2)).
    @pytest.mark.parametrize("ones,triple", [
        ([(0, 1, 1), (1, 1, 0)], "(1,2,2)"),
        ([(0, 0, 1), (0, 1, 1)], "(1,1,2)"),
    ])
    def test_symmetry_error_names_the_first_bad_triple(self, ones, triple):
        p = [Fraction(0)] * 8
        for i, j, k in ones:
            p[(i * 2 + j) * 2 + k] = Fraction(1)
        with pytest.raises(RelationError) as caught:
            TqftData([Fraction(1), Fraction(1)], p)
        assert str(caught.value) == f"p is not symmetric at slot indices {triple}"

    def test_dimension_consistency(self):
        with pytest.raises(Exception):
            TqftData([Fraction(1)], [Fraction(1), Fraction(2)])

    @pytest.mark.parametrize("d,p", [([], []), ([], [1]), ([1], [1, 2]),
                                     ([1, 1], [1] * 7), ([1, 1], [1] * 9)])
    def test_bad_dimension_raises_dimension_error(self, d, p):
        with pytest.raises(DimensionError):
            TqftData(d, p)

    def test_entry_accessors(self):
        data = diagonal_family([Fraction(2), Fraction(3)])
        assert data.d_entry(1) == 3
        assert data.p_entry(1, 1, 1) == Fraction(1, 3)
        assert data.p_entry(0, 1, 1) == 0


class TestCheckRelations:
    def test_unit_algebra_passes(self):
        report = check_relations(TqftData([Fraction(1)], [Fraction(1)]))
        assert report.passed
        assert report.tokens() == "PASS PASS PASS PASS"

    def test_dim1_t2_passes(self):
        # direct scalar substitution: d=2, p=1/2 satisfies
        # p*p == p*p, symmetry, d*p*d == d, d*p*p == p
        d, p = Fraction(2), Fraction(1, 2)
        assert d * p * d == d and d * p * p == p
        report = check_relations(TqftData([d], [p]))
        assert report.passed

    def test_dim1_d1_p2_fails_disk_absorption(self):
        report = check_relations(TqftData([Fraction(1)], [Fraction(2)]))
        assert not report["disk_absorption"].passed
        assert report["disk_absorption"].max_violation == 1  # |2 - 1|
        assert report["exchange"].passed and report["symmetry"].passed
        assert not report.passed

    def test_unknown_relation_name_rejected(self):
        report = check_relations(TqftData([Fraction(1)], [Fraction(1)]))
        with pytest.raises(KeyError):
            report["nope"]

    def test_overall_iff_all_four(self):
        good = check_relations(diagonal_family([2, 3]))
        assert good.passed == all(r.passed for r in good.results)
        bad = check_relations(TqftData([Fraction(1)], [Fraction(2)]))
        assert bad.passed == all(r.passed for r in bad.results)
        assert not bad.passed

    def test_exchange_violation_detected(self):
        # symmetric p whose induced product is not associative
        p = symmetric_p(2, {(0, 0, 1): 1})
        report = check_relations(TqftData([Fraction(1), Fraction(1)], p))
        assert not report["exchange"].passed
        assert report["symmetry"].passed

    def test_complex_backend_uses_tolerance(self):
        nearly_one = complex(1 + 1e-12)
        data = TqftData([nearly_one], [complex(1)], COMPLEX)
        assert check_relations(data).passed  # 1e-12 violation, below 1e-9
        off = TqftData([complex(1 + 1e-6)], [complex(1)], COMPLEX)
        assert not check_relations(off).passed  # 1e-6 violation, above 1e-9

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_fails(self, value):
        report = check_relations(TqftData([complex(value)], [complex(1)], COMPLEX))
        assert not report.passed
        assert "FAIL" in report.tokens()

    def test_complex_violation(self):
        data = TqftData([complex(1)], [complex(2)], COMPLEX)
        report = check_relations(data)
        assert not report["disk_absorption"].passed
        assert report["disk_absorption"].max_violation == pytest.approx(1.0)

    @pytest.mark.parametrize("d,p", [
        ([math.nan, 1], [1, 0, 0, 0, 0, 0, 0, 2]),
        ([1, math.nan], [2, 0, 0, 0, 0, 0, 0, 1]),  # the same datum, basis swapped
    ], ids=["nan first", "nan last"])
    def test_nan_gap_gives_nan_violation_in_any_entry_order(self, d, p):
        data = TqftData(d, p, COMPLEX)
        report = check_relations(data)
        for name in ("disk_absorption", "cylinder_absorption"):
            assert not report[name].passed
            assert math.isnan(report[name].max_violation), name


def oracle_relations(data):
    """{relation: list of gaps |LHS - RHS|}, by nested sums written straight
    from the relations in the tqft module docstring."""
    n = data.dimension
    d, p = data.d_entry, data.p_entry
    zero = Fraction(0) if data.backend == RATIONAL else 0j
    span = range(n)

    def total(terms):
        return sum(terms, zero)

    return {
        "exchange": [
            abs(total(p(i, j, k) * p(k, l, m) for k in span)
                - total(p(i, l, k) * p(k, j, m) for k in span))
            for i, j, l, m in itertools.product(span, repeat=4)],
        "symmetry": [
            abs(p(*order) - p(i, j, k))
            for i, j, k in itertools.product(span, repeat=3)
            for order in itertools.permutations((i, j, k))],
        "disk_absorption": [
            abs(total(d(k) * p(k, i, j) * d(j) for k in span for j in span) - d(i))
            for i in span],
        "cylinder_absorption": [
            abs(total(d(k) * p(k, i, j) * p(j, l, m) for k in span for j in span)
                - p(i, l, m))
            for i, l, m in itertools.product(span, repeat=3)],
    }


def seeded_symmetric_data(rng, backend):
    """Symmetric data of dimension 1-4 with mostly zero entries, or a
    diagonal family (which passes every relation)."""
    n = rng.randint(1, 4)
    if backend == RATIONAL:
        def value():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        def value():
            return complex(rng.randint(-4, 4) / 2, rng.choice([0, 0, 1, -0.5]))
    if rng.random() < 0.3:
        one = Fraction(1) if backend == RATIONAL else complex(1)
        return diagonal_family([value() or one for _ in range(n)])
    zeros = rng.choice([0.5, 0.8, 0.95])
    orbits = {}
    p = []
    for ijk in itertools.product(range(n), repeat=3):
        key = tuple(sorted(ijk))
        if key not in orbits:
            orbits[key] = value() if rng.random() >= zeros else 0 * value()
        p.append(orbits[key])
    d = [value() if rng.random() >= zeros else 0 * value() for _ in range(n)]
    return TqftData(d, p, backend)


class TestCheckRelationsOracle:
    @pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
    def test_matches_plain_sums(self, backend):
        rng = random.Random(f"relations-{backend}")
        inputs = [seeded_symmetric_data(rng, backend) for _ in range(60)]
        if backend == COMPLEX:
            # p[0,0,1] sits 5e-10 off its slot orbit: symmetric by the
            # tolerance, with a nonzero symmetry max_violation.
            inputs.append(TqftData([1, 2], [1, 0.5 + 5e-10, 0.5, 0, 0.5, 0, 0, 1],
                                   COMPLEX))
        verdicts = set()
        for data in inputs:
            report = check_relations(data)
            limit = 0 if backend == RATIONAL else DEFAULT_TOLERANCE
            for name, gaps in oracle_relations(data).items():
                result = report[name]
                assert result.passed == all(gap <= limit for gap in gaps), name
                if backend == RATIONAL:
                    assert result.max_violation == max(gaps), name
                    assert type(result.max_violation) is Fraction
                else:
                    assert abs(result.max_violation - max(gaps)) <= 1e-12, name
                verdicts.add((name, result.passed))
        # each relation both passes and fails somewhere, except symmetry,
        # which this data always has
        assert len(verdicts) == 2 * len(RELATION_NAMES) - 1


def same_scalar(x, y):
    """Equal value and type; NaN equals NaN."""
    return type(x) is type(y) and (x == y or (x != x and y != y))


def fresh_copy(data):
    """An equal datum built anew, whose relation reports are not yet stored."""
    return TqftData(data.d.entries, data.p.entries, data.backend)


class TestRelationCache:
    def cases(self):
        for backend in (RATIONAL, COMPLEX):
            rng = random.Random(f"cache-{backend}")
            for _ in range(25):
                yield seeded_symmetric_data(rng, backend)
        yield TqftData([complex(1 + 1e-12)], [complex(1)], COMPLEX)  # 1e-12 violation
        yield TqftData([Fraction(1)], [Fraction(2)])
        yield TqftData([complex(math.nan)], [complex(1)], COMPLEX)
        rng = random.Random("cache-good")
        for _ in range(10):
            yield good_data(rng)
        yield non_split()

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_cached_report_matches_a_fresh_check(self, order):
        verdicts = set()
        for data in list(self.cases())[::order]:
            report = check_relations(data)
            cached = check_relations(data)
            assert cached is report
            fresh = check_relations(fresh_copy(data))
            assert cached.passed == fresh.passed
            for got, want in zip(cached.results, fresh.results):
                assert got.name == want.name
                assert got.passed == want.passed
                assert same_scalar(got.max_violation, want.max_violation)
            verdicts.add((data.backend, cached.passed))
        assert verdicts == {(b, v) for b in (RATIONAL, COMPLEX) for v in (True, False)}

    def test_report_is_computed_on_first_use_only(self, monkeypatch):
        calls = []
        original = tqft_module.contract_between

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tqft_module, "contract_between", counting)
        data = diagonal_family([2, Fraction(1, 3), -5])
        assert calls == []  # building the datum checks nothing
        # Closed, so pants only: no closed forms and no normal form.
        surface = Surface.connected(2)
        first = invariant(data, surface)
        assert len(calls) == 4  # one relation check: q, c and the two absorptions
        assert invariant(data, surface).equals(first)
        assert invariant(data, Surface.connected(3)).rank == 0
        assert len(calls) == 4
        # The relation check stored c; the first surface with a boundary
        # adds only M.
        assert set(data._reports) == {"symmetry", "relations", "annulus"}
        bounded = invariant(data, Surface.connected(2, "+a,-b"))
        assert len(calls) == 5
        assert invariant(data, Surface.connected(1, "+a")).rank == 1
        assert invariant(data, Surface.connected(2, "+a,-b")).equals(bounded)
        assert len(calls) == 5

    @pytest.mark.parametrize("name", ["dimension", "d", "p", "backend", "_reports", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        data = diagonal_family([2, 3])
        with pytest.raises(AttributeError):
            setattr(data, name, None)
        assert data.dimension == 2 and data.backend == RATIONAL

    def test_racing_threads_share_one_report(self):
        data = diagonal_family([Fraction(k + 2, k + 1) for k in range(5)])
        barrier = threading.Barrier(8)
        reports, matrices = [], []

        def check():
            barrier.wait(timeout=30)
            reports.append(check_relations(data))
            matrices.append((tqft_module.annulus_matrix(data),
                             tqft_module.handle_matrix(data)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=check) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reports) == 8
        assert all(report is reports[0] for report in reports)
        assert reports[0] == check_relations(fresh_copy(data)) and reports[0].passed
        assert len(matrices) == 8
        assert all(c is matrices[0][0] and m is matrices[0][1] for c, m in matrices)
        assert matrices[0][0] is data._reports["annulus"]
        assert matrices[0][1] is data._reports["handle"]


class TestExactEntries:
    def test_construction_coerces_to_the_backend_type(self):
        class Ratio(Fraction):
            pass

        ix = [SignedIndex("a", PLUS, 4)]
        rational = LabeledTensor(ix, [1, True, Fraction(1, 3), Ratio(2, 5)], RATIONAL)
        assert [type(v) for v in rational.entries] == [Fraction] * 4
        assert rational.entries == (1, 1, Fraction(1, 3), Fraction(2, 5))
        floating = LabeledTensor(ix, [1, True, 0.5, Fraction(1, 4)], COMPLEX)
        assert [type(v) for v in floating.entries] == [complex] * 4
        data = TqftData([2], [Fraction(1, 2)])
        assert type(data.d_entry(0)) is Fraction
        assert type(check_relations(data)["exchange"].max_violation) is Fraction

    @pytest.mark.parametrize("backend", [RATIONAL, COMPLEX])
    def test_engine_results_keep_the_backend_type(self, backend):
        exact = Fraction if backend == RATIONAL else complex
        data = diagonal_family([2, 3] if backend == RATIONAL else [2.0, 3j])
        p = data.p
        lowered = p.relabel({"i": "x", "j": "y", "k": "z"}).flip_signs(["x"])
        results = [
            contract_between(p, lowered, [("k", "x")]),
            contract_between(p, data.d.relabel({"i": "w"}), ()),
            contract_within(p.flip_signs(["k"]), [("j", "k")]),
            p.permute_indices((2, 0, 1)),
            annulus_tensor(data),
        ] + list(base_invariants(data).values())
        for tensor in results:
            assert {type(v) for v in tensor.entries} == {exact}


class TestAnnulus:
    def test_dim1_family(self):
        c = annulus_tensor(diagonal_family([Fraction(2)]))
        assert c.entries == (1,)

    def test_dim2_diagonal_is_identity(self):
        c = annulus_tensor(diagonal_family([Fraction(1), Fraction(2)]))
        assert c.entries == (1, 0, 0, 1)

    def test_idempotent_when_relations_hold(self):
        rng = random.Random(5)
        for _ in range(10):
            data = good_data(rng)
            c = annulus_tensor(data)
            values = dict(zip(c.assignments(), c.entries))
            n = data.dimension
            # c.c == c, computed with plain loops
            for i, j in itertools.product(range(n), repeat=2):
                got = sum((values[i, k] * values[k, j]
                           for k in range(n)), Fraction(0))
                assert got == values[i, j]

    def test_matrix_applied_to_d_returns_d(self):
        rng = random.Random(6)
        for _ in range(10):
            data = good_data(rng)
            c = annulus_tensor(data)
            values = dict(zip(c.assignments(), c.entries))
            n = data.dimension
            for i in range(n):
                got = sum((values[i, j] * data.d_entry(j)
                           for j in range(n)), Fraction(0))
                assert got == data.d_entry(i)

    def test_zero_solution_gives_degenerate_annulus(self):
        data = TqftData([Fraction(0)], [Fraction(0)])
        assert check_relations(data).passed
        assert annulus_tensor(data).entries == (0,)


def oracle_table(data):
    """Index-loop recomputation of the closed-form table."""
    n = data.dimension
    d = [data.d_entry(i) for i in range(n)]
    sphere = sum((d[i] * d[i] for i in range(n)), data.d_entry(0) * 0)
    annulus = [sum((d[k] * data.p_entry(k, i, j) for k in range(n)),
                   data.d_entry(0) * 0)
               for i in range(n) for j in range(n)]
    torus = sum((d[k] * data.p_entry(k, i, i)
                 for k in range(n) for i in range(n)), data.d_entry(0) * 0)
    return sphere, tuple(d), tuple(annulus), torus


class TestBaseInvariants:
    def test_dim1_t3(self):
        table = base_invariants(diagonal_family([Fraction(3)]))
        assert table["sphere"].entries == (9,)
        assert table["torus"].entries == (1,)
        assert table["disk"].entries == (3,)

    def test_empty_is_always_one(self):
        for data in (diagonal_family([2]), TqftData([Fraction(0)], [Fraction(0)])):
            assert base_invariants(data)["empty"].entries == (1,)

    def test_dim2_diagonal(self):
        table = base_invariants(diagonal_family([Fraction(1), Fraction(2)]))
        assert table["sphere"].entries == (5,)
        assert table["torus"].entries == (2,)

    def test_matches_index_loop_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            data = good_data(rng)
            table = base_invariants(data)
            sphere, disk, annulus, torus = oracle_table(data)
            assert table["sphere"].entries == (sphere,)
            assert table["disk"].entries == disk
            assert table["annulus"].entries == annulus
            assert table["torus"].entries == (torus,)
            assert table["empty"].entries == (1,)


class TestExceptionalShapesMatchTheOracle:
    """invariant on the shapes with no pants decomposition (generator
    networks) against the index-loop oracle_table."""

    def cases(self):
        rng = random.Random("exceptional-shapes")
        for _ in range(8):
            data = conjugated(nonzero_values(rng, 2), random_rotation(rng, 2))
            assert check_relations(data).passed and all(data.p.entries)
            yield data
        failing = 0
        while failing < 8:
            data = seeded_symmetric_data(rng, RATIONAL)
            if not check_relations(data).passed:
                failing += 1
                yield data
        for _ in range(8):
            yield seeded_symmetric_data(rng, COMPLEX)
        rotated = conjugated(nonzero_values(rng, 2), random_rotation(rng, 2))
        yield TqftData([complex(v) for v in rotated.d.entries],
                       [complex(v) for v in rotated.p.entries], COMPLEX)

    def assert_matches(self, tensor, indices, expected, backend):
        assert tensor.indices == indices and tensor.backend == backend
        if backend == RATIONAL:
            assert tensor.entries == tuple(expected)
            assert {type(v) for v in tensor.entries} == {Fraction}
        else:
            assert len(tensor.entries) == len(expected)
            assert all(abs(x - y) <= DEFAULT_TOLERANCE
                       for x, y in zip(tensor.entries, expected))

    def test_every_shape_and_their_union(self):
        checked = {RATIONAL: 0, COMPLEX: 0}
        for data in self.cases():
            n, backend = data.dimension, data.backend
            sphere, disk, annulus, torus = oracle_table(data)

            def value(surface):
                return invariant(data, surface, require_relations=False)

            def ix(label, sign):
                return SignedIndex(label, sign, n)

            self.assert_matches(value(Surface.empty()), (), [1], backend)
            self.assert_matches(value(Surface.sphere()), (), [sphere], backend)
            self.assert_matches(value(Surface.torus(MINUS)), (), [torus], backend)
            for sign in (PLUS, MINUS):
                self.assert_matches(value(Surface.disk(f"{sign}a")), (ix("a", sign),),
                                    disk, backend)
            for (x, y), (sx, sy) in itertools.product(
                    [("a", "b"), ("b", "a")], itertools.product((PLUS, MINUS), repeat=2)):
                surface = Surface.annulus(f"{sx}{x},{sy}{y}")
                # entry (i, j) pairs the first circle's index i with the second's j
                expected = [annulus[i * n + j] if x == "a" else annulus[j * n + i]
                            for i, j in itertools.product(range(n), repeat=2)]
                self.assert_matches(value(surface), (ix(x, sx), ix(y, sy)),
                                    expected, backend)
            union = Surface.of(*(s.components[0] for s in [
                Surface.sphere(), Surface.annulus("-a,+b"), Surface.disk("+c", MINUS),
                Surface.torus()]))
            expected = [sphere * annulus[i * n + j] * disk[k] * torus
                        for i, j, k in itertools.product(range(n), repeat=3)]
            self.assert_matches(value(union), (ix("a", MINUS), ix("b", PLUS), ix("c", PLUS)),
                                expected, backend)
            checked[backend] += 1
        assert checked == {RATIONAL: 16, COMPLEX: 9}


class TestHermitian:
    def test_rational_is_always_real(self):
        assert hermitian_check(diagonal_family([Fraction(-2), Fraction(5)]))

    def test_complex_with_real_entries(self):
        assert hermitian_check(TqftData([1 + 0j], [1 + 0j], COMPLEX))

    def test_imaginary_d_fails(self):
        data = TqftData([1j], [-1j], COMPLEX)
        assert check_relations(data).passed
        assert not hermitian_check(data)

    def test_imaginary_part_at_the_tolerance_edge(self):
        def with_imaginary_d(imag):
            return TqftData([complex(1, imag)], [1 + 0j], COMPLEX)
        assert hermitian_check(with_imaginary_d(DEFAULT_TOLERANCE))
        assert hermitian_check(with_imaginary_d(-DEFAULT_TOLERANCE))
        assert not hermitian_check(with_imaginary_d(math.nextafter(DEFAULT_TOLERANCE, 1)))
        assert not hermitian_check(with_imaginary_d(math.nan))

    def test_diagonal_family_of_reals_is_hermitian(self):
        rng = random.Random(8)
        for _ in range(20):
            assert hermitian_check(diagonal_family(nonzero_values(rng, rng.randint(1, 4))))
        assert hermitian_check(diagonal_family([1.5, 2.0]))


class TestDiagonalFamily:
    def test_unit(self):
        data = diagonal_family([Fraction(1)])
        assert data.d.entries == (1,)
        assert data.p.entries == (1,)

    def test_t2(self):
        data = diagonal_family([Fraction(2)])
        assert data.d.entries == (2,)
        assert data.p.entries == (Fraction(1, 2),)
        assert check_relations(data).passed

    def test_mixed_signs(self):
        data = diagonal_family([Fraction(1), Fraction(-1)])
        assert check_relations(data).passed
        assert base_invariants(data)["sphere"].entries == (2,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            diagonal_family([Fraction(1), Fraction(0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            diagonal_family([])

    def test_many_random_vectors_pass_relations(self):
        rng = random.Random(9)
        for _ in range(1000):
            data = diagonal_family(nonzero_values(rng, rng.randint(1, 4)))
            assert check_relations(data).passed


def brute_force_dim1_solutions(height):
    """Independent enumerator: reduced fractions on the grid, relations
    written out as scalar equations."""
    values = {Fraction(num, den)
              for num in range(-height, height + 1)
              for den in range(1, height + 1)}
    out = set()
    for d in values:
        for p in values:
            exchange = p * p == p * p
            symmetry = True
            disk = d * p * d == d
            cylinder = d * p * p == p
            if exchange and symmetry and disk and cylinder:
                out.add((d, p))
    return out


class TestGridSearch:
    def test_height_one(self):
        got = {(s.d_entry(0), s.p_entry(0, 0, 0)) for s in grid_search_dim1(1)}
        assert got == {(Fraction(0), Fraction(0)),
                       (Fraction(1), Fraction(1)),
                       (Fraction(-1), Fraction(-1))}

    def test_height_two_includes_reciprocal_pairs(self):
        got = {(s.d_entry(0), s.p_entry(0, 0, 0)) for s in grid_search_dim1(2)}
        assert (Fraction(2), Fraction(1, 2)) in got
        assert (Fraction(1, 2), Fraction(2)) in got

    def test_everything_returned_passes_relations(self):
        for data in grid_search_dim1(2):
            assert check_relations(data).passed

    def test_matches_brute_force_and_closed_form(self):
        for height in (1, 2, 3):
            got = {(s.d_entry(0), s.p_entry(0, 0, 0))
                   for s in grid_search_dim1(height)}
            assert got == brute_force_dim1_solutions(height)
            values = {Fraction(num, den)
                      for num in range(-height, height + 1)
                      for den in range(1, height + 1)}
            closed_form = {(Fraction(0), Fraction(0))} | {
                (t, 1 / t) for t in values if t != 0 and 1 / t in values}
            assert got == closed_form

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            grid_search_dim1(7)
        with pytest.raises(ValueError):
            grid_search_dim1(0)

    def test_deterministic_order(self):
        a = [(s.d_entry(0), s.p_entry(0, 0, 0)) for s in grid_search_dim1(2)]
        b = [(s.d_entry(0), s.p_entry(0, 0, 0)) for s in grid_search_dim1(2)]
        assert a == b == sorted(a)


class TestDataFileFormat:
    def test_round_trip(self):
        data = diagonal_family([Fraction(2), Fraction(-1, 3)])
        parsed = parse_tqft(format_tqft(data))
        assert parsed.d.entries == data.d.entries
        assert parsed.p.entries == data.p.entries
        assert parsed.backend == RATIONAL

    def test_complex_round_trip(self):
        data = TqftData([1j], [-1j], COMPLEX)
        parsed = parse_tqft(format_tqft(data))
        assert parsed.d.entries == data.d.entries

    def test_example_file(self):
        data = parse_tqft("tqft dim=1 backend=rational\nd 1 = 2\np 1 1 1 = 1/2\n")
        assert data.d_entry(0) == 2
        assert data.p_entry(0, 0, 0) == Fraction(1, 2)

    def test_asymmetric_p_rejected(self):
        text = "tqft dim=2 backend=rational\nd 1 = 1\np 1 1 2 = 1\n"
        with pytest.raises(ParseError):
            parse_tqft(text)

    def test_symmetric_orbit_accepted(self):
        text = ("tqft dim=2 backend=rational\nd 1 = 1\n"
                "p 1 1 2 = 1\np 1 2 1 = 1\np 2 1 1 = 1\n")
        data = parse_tqft(text)
        assert data.p_entry(0, 0, 1) == 1

    @pytest.mark.parametrize("line", ["d 1 = nan", "d 1 = inf", "p 1 1 1 = nan"])
    def test_non_finite_entry_rejected(self, line):
        with pytest.raises(ParseError, match="non-finite"):
            parse_tqft(f"tqft dim=1 backend=complex\n{line}\n")

    def test_bad_scalar_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_tqft("tqft dim=1 backend=rational\nd 1 = 1\np 1 1 1 = x\n")
        assert str(err.value) == "line 3: bad rational scalar 'x'; expected p or p/q"

    @pytest.mark.parametrize("backend,text,expected", [
        ("rational", "x" * 3000, "p or p/q"), ("complex", " " + "x" * 3000, "a+bi")])
    def test_long_bad_scalar_names_its_line_in_bounded_size(self, backend, text,
                                                           expected):
        # `text` follows the '='; both backends quote and count it stripped
        with pytest.raises(ParseError) as err:
            parse_tqft(f"tqft dim=1 backend={backend}\nd 1 =" + text)
        quoted = text.strip()
        assert str(err.value) == (f"line 2: bad {backend} scalar {quoted[:SCALAR_SHOWN]!r}... "
                                  f"of {len(quoted)} characters; expected {expected}")
        assert len(str(err.value)) < 200

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_tqft("tqft dim=1 backend=rational\nd 1 = 1\nd 1 = 2\n")
        assert err.value.line == 3

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_tqft("tqft dim=1 backend=rational\nd 2 = 1\n")

    @pytest.mark.parametrize("line", [
        "d {} = 1", "p {} 1 1 = 1", "p 1 {} 1 = 1", "p 1 1 {} = 1"])
    def test_index_too_long_for_int_is_refused_from_its_digits(self, line):
        digits = "9" * 5000
        with pytest.raises(ParseError) as err:
            parse_tqft(f"tqft dim=2 backend=rational\nd 1 = 1\n{line.format(digits)}\n")
        assert err.value.line == 3
        assert str(err.value) == (f"line 3: {line[0]} index of 5000 digits "
                                  "out of range 1..2")

    @pytest.mark.parametrize("line", [
        "d +1 = 1", "d 0_2 = 1", "p 1 -1 1 = 1", "p 1 1 1.0 = 1", "d1 = 1", "q 1 = 1"])
    def test_not_an_entry_line(self, line):
        with pytest.raises(ParseError, match="^line 2, col 1: expected 'd <i> = <scalar>'"):
            parse_tqft(f"tqft dim=2 backend=rational\n{line}\n")

    def test_writer_gives_d_then_p_entry_lines(self):
        data = TqftData([0, 2], symmetric_p(2, {(0, 0, 1): Fraction(1, 3)}))
        assert format_tqft(data) == ("tqft dim=2 backend=rational\nd 2 = 2\n"
                                     "p 1 1 2 = 1/3\np 1 2 1 = 1/3\np 2 1 1 = 1/3")

    @pytest.mark.parametrize("line,message", [
        ("d 0 = 1", "d index 0 out of range 1..2"),
        ("p 1 0 1 = 1", "p index 0 out of range 1..2"),
        ("p 1 1 = 1", "expected 3 indices, got 2")])
    def test_entry_errors(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2(, col 1)?: {message}$"):
            parse_tqft(f"tqft dim=2 backend=rational\n{line}\n")

    def test_index_digits_count_without_leading_zeros(self):
        data = parse_tqft(f"tqft dim=2 backend=rational\nd {'0' * 5000}2 = 1\n"
                          f"p 1 1 {'0' * 5000}1 = 1\n")
        assert data.d_entry(1) == 1 and data.p_entry(0, 0, 0) == 1
        with pytest.raises(ParseError, match="line 2: d index 11 out of range 1..10"):
            parse_tqft("tqft dim=10 backend=rational\nd 0011 = 1\n")
        with pytest.raises(ParseError, match="line 2: d index of 4 digits out of range"):
            parse_tqft("tqft dim=9 backend=rational\nd 0010 = 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_tqft("tqft dim=1\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("dim", [162, 10_000_000, 10 ** 40])
    def test_oversized_header_is_refused_before_allocation(self, dim):
        # 161**3 entries fit the budget, 162**3 do not
        with pytest.raises(DimensionError, match="budget"):
            parse_tqft(f"tqft dim={dim} backend=rational\n")

    @pytest.mark.parametrize("digits", ["9" * 5000, "1" + "0" * 4300],
                             ids=["5000 nines", "10**4300"])
    def test_header_too_long_for_int_is_over_the_budget(self, digits):
        with pytest.raises(DimensionError) as err:
            parse_tqft(f"tqft dim={digits} backend=rational\n")
        assert str(err.value) == (f"a tensor with 3 indices of dimension of {len(digits)} "
                                  f"digits exceeds the budget of {MAX_ENTRIES} entries")

    def test_header_leading_zeros_are_not_digits_of_size(self):
        data = parse_tqft(f"tqft dim={'0' * 5000}1 backend=rational\np 1 1 1 = 1\n")
        assert data.dimension == 1
        with pytest.raises(DimensionError, match="dimension 162 exceeds"):
            parse_tqft(f"tqft dim={'0' * 5000}162 backend=rational\n")
