"""Family generators against independent oracles.

The coefficient matrices are cross-checked against the classical three-term
recurrences (a completely separate construction), the moments against
high-precision quadrature, and the whole triple (A, lambda, moments) against
the diagonalisation identity A G A^T = diag(lambda).
"""

import dataclasses
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, strategies as st
from mpmath import exp, inf, mp, mpf, quad

from gramkernel.approx import SIN_PI, ApproxPolynomial, MomentVector, function_moments, project
from gramkernel.checks import build_artefacts, run_checks
from gramkernel.exactscalar import to_bigfloat
from gramkernel.families import (
    ALL_FAMILIES,
    HERMITE_EVEN,
    HERMITE_ODD,
    LAGUERRE,
    LEGENDRE_EVEN,
    LEGENDRE_ODD,
    Family,
    GradedMatrix,
    Record,
    _cleared,
    _coeff_row,
    coeff_matrix,
    coeff_rows,
    double_factorial,
    family_by_name,
    monomial_moment,
    norm_vector,
    printed_legendre_norm,
)
from gramkernel.kernelbuild import build_kernel
from gramkernel.oracle import gram_from_moments, invert_exact


def classical_polynomial(measure: str, degree: int) -> list[Fraction]:
    """Ascending coefficients of the classical polynomial via its three-term
    recurrence; the independent oracle for the closed-form coefficients."""

    def shift(p):  # multiply by x
        return [Fraction(0)] + p

    def combine(ca, pa, cb, pb):
        n = max(len(pa), len(pb))
        pa = pa + [Fraction(0)] * (n - len(pa))
        pb = pb + [Fraction(0)] * (n - len(pb))
        return [ca * a + cb * b for a, b in zip(pa, pb)]

    if measure == "laguerre":
        prev, cur = [Fraction(1)], [Fraction(1), Fraction(-1)]
        step = lambda k, cur, prev: combine(
            Fraction(1, k + 1),
            combine(Fraction(2 * k + 1), cur, Fraction(-1), shift(cur)),
            Fraction(-k, k + 1),
            prev,
        )
    elif measure == "legendre":
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        step = lambda k, cur, prev: combine(
            Fraction(2 * k + 1, k + 1), shift(cur), Fraction(-k, k + 1), prev
        )
    else:
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(2)]
        step = lambda k, cur, prev: combine(
            Fraction(2), shift(cur), Fraction(-2 * k), prev
        )

    if degree == 0:
        return prev
    for k in range(1, degree):
        prev, cur = cur, step(k, cur, prev)
    return cur


def _coeff_entry(family: Family, i: int, j: int) -> Fraction:
    """a_ij (1-based, j <= i) from the family's closed form: the reference
    for the package's row recurrences."""
    if family.measure == "laguerre":
        return Fraction((-1) ** (j - 1) * comb(i - 1, j - 1), factorial(j - 1))
    if family.measure == "legendre":
        # the rising product (b_j/2 + 1) ... (b_j/2 + i - 1), a ratio of
        # half-integer Gammas, is (b_j + 2i - 2)!! / (b_j!! * 2**(i-1))
        b_j = 2 * j - 3 + 2 * family.offset
        return Fraction(
            (-1) ** (i + j) * comb(i - 1, j - 1) * double_factorial(b_j + 2 * i - 2),
            double_factorial(b_j) * 2 ** (i - 1) * factorial(i - 1),
        )
    # hermite
    deg_i = family.basis_power(i)
    pow_j = family.basis_power(j)
    return Fraction(
        (-1) ** (i - j) * factorial(deg_i) * 2**pow_j, factorial(i - j) * factorial(pow_j)
    )


def _closed_form_row(family: Family, i: int) -> tuple[tuple[int, ...], int]:
    """Row i of A from the closed form, cleared over the lcm of its denominators."""
    (ints,), d = _cleared([[_coeff_entry(family, i, j) for j in range(1, i + 1)]])
    return tuple(ints), d


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
class TestCoeffRowsAgainstClosedForm:
    """The integer rows come from a ratio recurrence along each row; the
    closed form, cleared, is their independent reference."""

    def test_every_row_to_60(self, family):
        rows = coeff_rows(family, 60)
        assert rows == [_closed_form_row(family, i) for i in range(1, 61)]
        for ints, d in rows:
            assert d > 0 and gcd(d, *ints) == 1 and all(type(c) is int for c in ints)

    @pytest.mark.parametrize("i", (100, 199, 200, 301, 400))  # 400: cond's size ceiling
    def test_spot_rows_to_400(self, family, i):
        assert _coeff_row(family, i) == _closed_form_row(family, i)

    def test_rejects_empty(self, family):
        with pytest.raises(ValueError):
            coeff_rows(family, 0)


class TestCoeffMatrixExamples:
    def test_laguerre_2(self):
        assert coeff_matrix(LAGUERRE, 2).entries == (
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(-1)),
        )

    def test_legendre_even_2(self):
        assert coeff_matrix(LEGENDRE_EVEN, 2).entries == (
            (Fraction(1), Fraction(0)),
            (Fraction(-1, 2), Fraction(3, 2)),
        )

    def test_hermite_even_2(self):
        assert coeff_matrix(HERMITE_EVEN, 2).entries == (
            (Fraction(1), Fraction(0)),
            (Fraction(-2), Fraction(4)),
        )

    def test_legendre_odd_2(self):
        assert coeff_matrix(LEGENDRE_ODD, 2).entries == (
            (Fraction(1), Fraction(0)),
            (Fraction(-3, 2), Fraction(5, 2)),
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coeff_matrix(LAGUERRE, 0)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
class TestCoeffMatrixAgainstRecurrence:
    def test_rows_match_classical_polynomials(self, family):
        # n = 40 is the largest kernel size the point benchmark builds
        a = coeff_matrix(family, 40)
        for i in range(1, 41):
            degree = family.basis_power(i)
            poly = classical_polynomial(family.measure, degree)
            # entries on the family's power grid must match; all others vanish
            for p, coeff in enumerate(poly):
                if (p - family.offset) % family.stride == 0 and p >= family.offset:
                    j = (p - family.offset) // family.stride + 1
                    assert a.entries[i - 1][j - 1] == coeff
                else:
                    assert coeff == 0

    def test_memoised_rows_match_the_closed_form_at_every_size(self, family):
        """Rows are memoised by (family, row), not by size: after size 40
        has filled the memo, every smaller A_n still holds the closed form."""
        want = [[_coeff_entry(family, i, j) if j <= i else 0 for j in range(1, 41)]
                for i in range(1, 41)]
        for n in (40, *range(1, 40)):
            got = coeff_matrix(family, n).entries
            assert got == tuple(tuple(row[:n]) for row in want[:n])
            assert all(type(q) is Fraction for row in got for q in row)

    def test_diagonal_never_vanishes(self, family):
        a = coeff_matrix(family, 20)
        assert all(a.entries[i][i] != 0 for i in range(20))


class TestGradedMatrixForm:
    def test_fields_are_integers_over_one_denominator(self):
        assert list(GradedMatrix._fields) == ["family", "n", "ints", "den", "sqrtpi_power"]

    def test_rows_are_integers_over_the_lcm_of_their_denominators(self):
        a = coeff_matrix(HERMITE_EVEN, 6)
        rows = coeff_rows(HERMITE_EVEN, 6)
        assert a.den == lcm(*(d for _, d in rows)) == lcm(*(q.denominator for row in a.entries
                                                             for q in row))
        for row, ints, (c, d) in zip(a.entries, a.ints, rows):
            assert [Fraction(x, a.den) for x in ints] == list(row)
            assert list(row) == [Fraction(x, d) for x in c] + [0] * (6 - len(c))

    def test_cache_does_not_change_equality_hash_or_repr(self):
        """The ``Fraction`` view and the hash are cached per instance,
        outside the record's fields; a replaced matrix starts without them."""
        cached = coeff_matrix(HERMITE_ODD, 5)
        fresh = GradedMatrix(HERMITE_ODD, 5, cached.ints, cached.den)
        assert cached.entries is cached.entries
        assert "entries" in vars(cached) and "entries" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh) and repr(cached) == repr(fresh)
        assert not {"entries", "_hash"} & vars(cached.replace()).keys()

    def test_the_view_builds_one_fraction_per_distinct_integer(self):
        b = build_kernel(LAGUERRE, 6).entries
        assert all(b[i][j] is b[j][i] for i in range(6) for j in range(i))

    def test_a_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            GradedMatrix(LAGUERRE, 1, ((0,),), 0)


# zeros, negative entries and mixed denominators, with a common factor
matrix_rationals = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=30))


@st.composite
def fraction_matrices(draw):
    """A small square ``Fraction`` matrix, all zero or with zeros and
    negatives, its entries sharing a drawn factor."""
    n = draw(st.integers(0, 4))
    factor = draw(st.sampled_from((0, 1, 6, Fraction(1, 6), Fraction(-35, 4), Fraction(2**70))))
    return [[draw(matrix_rationals) * factor for _ in range(n)] for _ in range(n)]


def _reduced_fields(m):
    ints = [a for row in m.ints for a in row]
    return m.den > 0 and gcd(m.den, *ints) == 1


class TestCanonicalForm:
    """The constructor reduces every matrix to integers over one positive
    denominator sharing no factor with them, so equal matrices have equal
    fields, hashes and reprs."""

    @given(fraction_matrices(), st.integers(-2, 2))
    def test_of_round_trips_entries(self, entries, grade):
        m = GradedMatrix.of(HERMITE_EVEN, entries, grade)
        assert m.entries == tuple(map(tuple, entries))
        assert (m.family, m.n, m.sqrtpi_power) == (HERMITE_EVEN, len(entries), grade)
        assert _reduced_fields(m)
        assert all(type(a) is int for row in m.ints for a in row)

    @given(fraction_matrices(), st.integers(1, 10**30), st.sampled_from((1, -1)))
    def test_scaled_fields_give_an_equal_matrix(self, entries, k, sign):
        m = GradedMatrix.of(LAGUERRE, entries)
        scaled = GradedMatrix(LAGUERRE, m.n, [[sign * k * a for a in row] for row in m.ints],
                              sign * k * m.den)
        assert scaled == m and hash(scaled) == hash(m) and repr(scaled) == repr(m)
        assert (scaled.ints, scaled.den) == (m.ints, m.den)

    @given(fraction_matrices(), st.integers(2, 50), st.integers(-50, 50).filter(bool))
    def test_replace_reduces_again(self, entries, k, den):
        m = GradedMatrix.of(LAGUERRE, entries)
        assert m.replace(ints=[[k * a for a in row] for row in m.ints], den=k * m.den) == m
        other = m.replace(ints=[[k * a for a in row] for row in m.ints], den=den)
        assert _reduced_fields(other)
        assert other.entries == tuple(tuple(Fraction(k * a, den) for a in row) for row in m.ints)

    @given(st.integers(0, 5), st.integers(-10**20, 10**20).filter(bool))
    def test_the_zero_matrix_has_den_one(self, n, den):
        zero = GradedMatrix(LAGUERRE, n, [[0] * n for _ in range(n)], den)
        assert zero.den == 1 and zero == GradedMatrix.of(LAGUERRE, [[Fraction(0)] * n] * n)


def _records():
    """One record of each of the package's seven record types, as built."""
    kernel = build_kernel(LEGENDRE_ODD, 3)
    moments = function_moments(SIN_PI, 3)
    return [LAGUERRE, kernel, SIN_PI, moments, project(kernel, moments), run_checks(1)[0],
            build_artefacts(HERMITE_EVEN, 2)]


def _dataclass_twin(record):
    """The frozen dataclass with ``record``'s class name, fields and
    defaults, and ``record``'s field values."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__ else (name, object) for name in cls._fields], frozen=True)
    return twin(*(getattr(record, name) for name in cls._fields))


class TestRecord:
    def test_the_seven_record_types(self):
        assert [type(r).__name__ for r in _records()] == [
            "Family", "GradedMatrix", "TargetFunction", "MomentVector", "ApproxPolynomial",
            "CheckResult", "Artefacts"]
        assert all(isinstance(r, Record) for r in _records())

    @pytest.mark.parametrize("index", range(7))
    def test_repr_hash_and_equality_are_a_frozen_dataclass(self, index):
        record = _records()[index]
        twin, cls = _dataclass_twin(record), type(record)
        assert repr(record) == repr(twin) and hash(record) == hash(twin)
        values = tuple(getattr(twin, name) for name in cls._fields)
        assert cls(*values) == record == cls(**dict(zip(cls._fields, values)))
        assert record != twin and record != values

    @pytest.mark.parametrize("index", range(7))
    def test_fields_refuse_assignment_and_deletion(self, index):
        record = _records()[index]
        for name in type(record)._fields:
            with pytest.raises(AttributeError, match="is frozen"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="is frozen"):
                delattr(record, name)
        with pytest.raises(AttributeError, match="is frozen"):
            record.other = 1

    def test_defaults_and_construction_errors(self):
        assert Family("x", "legendre", 2, 0).moment_grade == 0
        assert Family("x", "legendre", 2, 0) == Family(offset=0, stride=2, measure="legendre",
                                                      name="x", moment_grade=0)
        for args, kwargs in [(("x", "legendre", 2), {}), (("x", "legendre", 2, 0, 0, 1), {}),
                             (("x", "legendre", 2, 0), {"name": "y"}),
                             (("x",), {"measure": "legendre", "stride": 2}),
                             (("x", "legendre", 2, 0), {"grade": 1})]:
            with pytest.raises(TypeError, match="takes the fields name, measure, stride"):
                Family(*args, **kwargs)

    def test_replace_changes_fields_and_drops_the_caches(self):
        hashed = LAGUERRE.replace()
        assert hashed == LAGUERRE and hashed is not LAGUERRE and hash(hashed)
        assert "_hash" in vars(hashed) and "_hash" not in vars(hashed.replace())
        moved = LAGUERRE.replace(offset=1, moment_grade=2)
        assert (moved.name, moved.offset, moved.moment_grade) == ("laguerre", 1, 2)
        with pytest.raises(TypeError):
            LAGUERRE.replace(grade=1)

    def test_records_of_different_types_never_compare_equal(self):
        moments = function_moments(SIN_PI, 3)
        estimate = ApproxPolynomial(moments.family, moments.entries)
        assert moments != estimate and not moments == estimate
        assert MomentVector(*moments._values(moments)) == moments


class TestLaguerreConstantTerm:
    def test_value_at_zero_is_one(self):
        # L_{i-1}(0) = 1: the constant term of every row
        a = coeff_matrix(LAGUERRE, 20)
        assert all(a.entries[i][0] == 1 for i in range(20))


class TestNormVector:
    def test_laguerre_norms(self):
        assert norm_vector(LAGUERRE, 3) == (Fraction(1), Fraction(1), Fraction(1))
        assert LAGUERRE.moment_grade == 0

    def test_legendre_even_norms(self):
        assert norm_vector(LEGENDRE_EVEN, 2) == (Fraction(2), Fraction(2, 5))
        assert LEGENDRE_EVEN.moment_grade == 0

    def test_hermite_even_first_norm_is_sqrt_pi(self):
        # the core 1 of grade 1: 1 * sqrt(pi)
        assert norm_vector(HERMITE_EVEN, 1) == (Fraction(1),)
        assert HERMITE_EVEN.moment_grade == 1

    def test_all_positive(self):
        # sqrt(pi)**grade > 0, so a norm's sign is its core's sign
        for family in ALL_FAMILIES:
            assert all(v > 0 for v in norm_vector(family, 12))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            norm_vector(LAGUERRE, 0)

    def test_printed_legendre_values_are_reciprocals(self):
        for family in (LEGENDRE_EVEN, LEGENDRE_ODD):
            true = norm_vector(family, 6)
            for i in range(1, 7):
                assert printed_legendre_norm(family, i) == 1 / true[i - 1]

    def test_printed_values_only_for_legendre(self):
        with pytest.raises(ValueError):
            printed_legendre_norm(LAGUERRE, 1)


class TestMonomialMoment:
    def test_laguerre_factorial(self):
        assert monomial_moment(LAGUERRE, 3) == Fraction(6)
        assert LAGUERRE.moment_grade == 0

    def test_legendre_even_power(self):
        assert monomial_moment(LEGENDRE_EVEN, 2) == Fraction(2, 3)
        assert LEGENDRE_EVEN.moment_grade == 0

    def test_legendre_odd_power_vanishes(self):
        assert monomial_moment(LEGENDRE_ODD, 3) == Fraction(0)

    def test_hermite_fourth_moment(self):
        # 3/4 * sqrt(pi): the core 3/4 of the family's grade 1
        assert monomial_moment(HERMITE_EVEN, 4) == Fraction(3, 4)
        assert HERMITE_EVEN.moment_grade == 1

    def test_hermite_odd_vanishes(self):
        assert monomial_moment(HERMITE_ODD, 5) == Fraction(0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            monomial_moment(LAGUERRE, -1)

    def test_memoised_values_equal_fresh_ones(self):
        fresh = monomial_moment.__wrapped__
        for family in ALL_FAMILIES:
            for k in range(81):
                got = monomial_moment(family, k)
                assert got == fresh(family, k) and type(got) is Fraction

    def test_double_factorial_conventions(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(7) == 105

    def test_quadrature_oracle(self):
        """Moments agree with 256-bit quadrature to >= 30 digits.

        The half-line integral is truncated at x = 200: the tail of
        x**k e^-x is below 200**k e^-200 < 1e-40 for every k used here.
        Each core is scaled by sqrt(pi) to its family's ``moment_grade``, so
        the grade is held against the quadrature too.
        """

        def moment(family, k):
            core = to_bigfloat(monomial_moment(family, k), 256)
            return core * mp.sqrt(mp.pi) ** family.moment_grade

        with mp.workprec(256):
            for k in range(0, 7):
                got = moment(LAGUERRE, k)
                ref = quad(lambda y: y**k * exp(-y), [0, 50, 200])
                assert abs(got - ref) <= abs(ref) * mpf(10) ** -30

                got = moment(LEGENDRE_EVEN, k)
                ref = quad(lambda y: y**k, [-1, 0, 1])
                if k % 2 == 1:
                    assert got == 0 and abs(ref) < mpf(10) ** -40
                else:
                    assert abs(got - ref) <= abs(ref) * mpf(10) ** -30

                got = moment(HERMITE_EVEN, k)
                ref = quad(lambda y: y**k * exp(-(y**2)), [-inf, 0, inf])
                if k % 2 == 1:
                    assert got == 0 and abs(ref) < mpf(10) ** -40
                else:
                    assert abs(got - ref) <= abs(ref) * mpf(10) ** -30


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 11))
class TestStructuralIdentities:
    def test_diagonalisation(self, family, n):
        """A G A^T == diag(lambda) exactly: validates all three generators."""
        a = coeff_matrix(family, n).entries
        g = gram_from_moments(family, n)
        norms = norm_vector(family, n)
        for i in range(n):
            for j in range(n):
                acc = Fraction(0)
                for k in range(n):
                    for l in range(n):
                        acc += a[i][k] * g.entries[k][l] * a[j][l]
                want = norms[i] if i == j else Fraction(0)
                assert acc == want
        # the norms are documented to carry the family's moment grade
        assert g.sqrtpi_power == family.moment_grade

    def test_determinant_identity(self, family, n):
        """prod(lambda) == det(A)^2 * det(G), grades included."""
        a = coeff_matrix(family, n).entries
        g = gram_from_moments(family, n)
        _, det_g = invert_exact(g)
        det_a = Fraction(1)
        for i in range(n):
            det_a *= a[i][i]
        prod = Fraction(1)
        for v in norm_vector(family, n):
            prod *= v
        assert prod == det_a**2 * det_g
        # grades: n norms of the family's moment grade vs det(G) of n * G's grade
        assert n * family.moment_grade == n * g.sqrtpi_power


class TestFamilyLookup:
    def test_by_name(self):
        assert family_by_name("hermite-odd") is HERMITE_ODD

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            family_by_name("jacobi")

    def test_basis_powers(self):
        assert [LAGUERRE.basis_power(i) for i in (1, 2, 3)] == [0, 1, 2]
        assert [LEGENDRE_ODD.basis_power(i) for i in (1, 2, 3)] == [1, 3, 5]
        assert [HERMITE_EVEN.basis_power(i) for i in (1, 2, 3)] == [0, 2, 4]
