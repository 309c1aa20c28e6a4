import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fractalseq import (Surd, annotate_ranks, brute_force_signature,
                        check_doubly_fractal_prefix, compare_affine,
                        generate_signature, parse_theta, signature_terms)
from fractalseq.signature import compare_with_rational, surd_sign

from conftest import make_theta_sample
from fixtures import ONE_SEVENTH_PREFIX, SQRT13_PREFIX

SQRT13 = Surd.sqrt(13)


# --- Surd normal form -------------------------------------------------------

def test_sqrt_of_square_collapses_to_fraction():
    assert Surd.make(0, 1, 4) == Fraction(2)
    assert Surd.make(1, 2, 9, 2) == Fraction(7, 2)


def test_square_factor_extraction():
    # The radicand is kept as written; equality and hashing go by value.
    s = parse_theta("sqrt(12)")
    assert (s.a, s.b, s.d, s.c) == (0, 1, 12, 1) and str(s) == "sqrt(12)"
    assert Surd.make(0, 1, 12) == Surd.make(0, 2, 3)
    assert len({Surd.make(0, 1, 12), Surd.make(0, 2, 3)}) == 1


def trial_division_squarefree_part(d):
    """Write d = f*f * dd with dd square-free by trial division up to
    sqrt(d); the oracle that value equality is checked against."""
    f, dd, p = 1, d, 2
    while p * p <= dd:
        while dd % (p * p) == 0:
            dd //= p * p
            f *= p
        p += 1
    return f, dd


def squarefree_normal_form(a, b, d, c):
    f, dd = trial_division_squarefree_part(d)
    g = math.gcd(a, b * f, c)
    return a // g, b * f // g, dd, c // g


def test_value_equality_agrees_with_squarefree_normal_form():
    shapes = [(a, b, c) for a in (0, 1) for b in (1, 2, 3, -2) for c in (1, 2)]
    by_form, by_value, small, made = {}, {}, [], 0
    for d in range(2, 3001):
        if math.isqrt(d) ** 2 == d:
            continue
        for a, b, c in shapes:
            made += 1
            x, form = Surd.make(a, b, d, c), squarefree_normal_form(a, b, d, c)
            first = by_form.setdefault(form, x)
            assert x == first and hash(x) == hash(first), (x, first)
            assert by_value.setdefault(x, form) == form, (x, form)
            if d < 30:
                small.append((x, form))
    assert len(by_value) == len(by_form) < made
    # Pairwise on small radicands, so an equality that hashing hides shows too.
    for x, ox in small:
        for y, oy in small:
            assert (x == y) == (ox == oy), (x, y)


@pytest.mark.parametrize("p", [1000003, 10 ** 40 + 121])
def test_square_factor_of_large_radicand_is_equal_by_value(p):
    for k in (2, 3, 10, 997):
        x = parse_theta(f"sqrt({k * k * p})")
        assert x.d == k * k * p
        assert x == parse_theta(f"{k}*sqrt({p})") == Surd.make(0, k, p)
        assert hash(x) == hash(Surd.make(0, k, p))
        assert x != Surd.make(0, k + 1, p) and x != Surd.make(0, k, p + 1)


def test_large_prime_radicand():
    d = 10 ** 14 + 31
    theta = parse_theta(f"sqrt({d})")
    assert (theta.a, theta.b, theta.d, theta.c) == (0, 1, d, 1)
    assert [v for v, _ in generate_signature(theta, 3)] == [1, 2, 3]


def test_common_factor_reduction_and_sign():
    s = Surd.make(2, 2, 2, -4)
    assert (s.a, s.b, s.d, s.c) == (-1, -1, 2, 2)


def test_raw_constructor_rejects_non_normal_forms():
    with pytest.raises(ValueError):
        Surd(0, 1, 4)      # square radicand
    with pytest.raises(ValueError):
        Surd(0, 0, 5)      # rational
    with pytest.raises(ValueError):
        Surd(2, 2, 5, 4)   # common factor
    with pytest.raises(ValueError):
        Surd(0, 1, 5, 0)   # zero denominator


def test_surd_sign_cases():
    assert surd_sign(0, 1, 2) == 1
    assert surd_sign(-1, 1, 2) == 1      # sqrt(2) > 1
    assert surd_sign(-2, 1, 2) == -1     # sqrt(2) < 2
    assert surd_sign(3, -2, 2) == 1      # 3 > 2*sqrt(2)
    assert surd_sign(-3, 2, 2) == -1
    assert surd_sign(0, 0, 2) == 0


# --- exact comparison -------------------------------------------------------

def test_compare_affine_same_rank():
    assert compare_affine(1, 1, 2, 1, SQRT13) < 0


def test_compare_affine_across_ranks():
    assert compare_affine(4, 1, 1, 2, SQRT13) < 0
    assert compare_affine(5, 1, 1, 2, SQRT13) > 0


def test_compare_affine_rational_tie():
    assert compare_affine(2, 1, 1, 8, Fraction(1, 7)) == 0


def test_compare_affine_accepts_plain_ints():
    assert compare_affine(1, 2, 2, 1, 3) > 0


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50),
       st.integers(1, 40), st.integers(1, 40))
def test_compare_affine_matches_fraction_arithmetic(e1, f1, e2, f2, p, q):
    theta = Fraction(p, q)
    lhs, rhs = e1 + f1 * theta, e2 + f2 * theta
    expected = (lhs > rhs) - (lhs < rhs)
    assert compare_affine(e1, f1, e2, f2, theta) == expected


def _decimal_sign(a, b, d):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        val = decimal.Decimal(a) + decimal.Decimal(b) * decimal.Decimal(d).sqrt()
        return (val > 0) - (val < 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]))
def test_surd_sign_matches_high_precision_decimal(a, b, d):
    # A nonzero a + b*sqrt(d) with these magnitudes exceeds 1e-14 in
    # absolute value, far above 60-digit noise; zero needs a = b = 0.
    expected = 0 if (a == 0 and b == 0) else _decimal_sign(a, b, d)
    assert surd_sign(a, b, d) == expected


@given(st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-30, 30))
def test_compare_affine_flips_under_swap(e1, f1, e2, f2):
    for theta in (Fraction(5, 3), Surd.sqrt(2), Surd.make(1, 2, 5, 3)):
        assert (compare_affine(e1, f1, e2, f2, theta)
                == -compare_affine(e2, f2, e1, f1, theta))


def test_equal_only_for_rational_theta():
    for theta in (Surd.sqrt(2), Surd.make(3, -1, 2, 5)):
        for e1 in range(1, 6):
            for f1 in range(1, 6):
                for e2 in range(1, 6):
                    for f2 in range(1, 6):
                        c = compare_affine(e1, f1, e2, f2, theta)
                        assert (c == 0) == (e1 == e2 and f1 == f2)


def test_compare_with_rational():
    assert compare_with_rational(SQRT13, Fraction(3)) > 0
    assert compare_with_rational(SQRT13, Fraction(4)) < 0
    assert compare_with_rational(Fraction(7, 2), Fraction(7, 2)) == 0
    assert compare_with_rational(Surd.make(1, 1, 2, 2), Fraction(6, 5)) > 0


# --- generation --------------------------------------------------------------

def test_sqrt13_golden_prefix():
    assert [t.value for t in generate_signature(SQRT13, 23)] == SQRT13_PREFIX


def test_one_seventh_golden_prefix_with_ties():
    assert [t.value for t in generate_signature(Fraction(1, 7), 24)] == ONE_SEVENTH_PREFIX


def test_huge_theta_orders_by_value_alone():
    terms = generate_signature(Fraction(1_000_000), 3)
    assert [(t.value, t.rank) for t in terms] == [(1, 1), (2, 1), (3, 1)]


def test_tie_order_emits_larger_value_first():
    # At theta = 1/5 the fifth one (1+5*theta = 2) still precedes the
    # tie 2+theta = 1+6*theta, where the 2 must come first.
    assert [t.value for t in generate_signature(Fraction(1, 5), 7)] == [1, 1, 1, 1, 1, 2, 1]
    assert [t.value for t in generate_signature(Fraction(1, 4), 6)] == [1, 1, 1, 1, 2, 1]


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_signature(Fraction(0), 5)
    with pytest.raises(ValueError):
        generate_signature(Fraction(-3, 2), 5)
    with pytest.raises(ValueError):
        generate_signature(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        generate_signature(Surd.make(1, -1, 2), 5)  # 1 - sqrt(2) < 0


def test_brute_force_minimum_element():
    assert brute_force_signature(Fraction(5), 1) == [(1, 1)]


def test_brute_force_matches_golden_listings():
    assert [t.value for t in brute_force_signature(SQRT13, 23)] == SQRT13_PREFIX
    assert [t.value for t in brute_force_signature(Fraction(1, 7), 24)] == ONE_SEVENTH_PREFIX


def test_generator_equals_brute_force_on_mixed_sample():
    for theta in make_theta_sample(6, 6, seed=7):
        assert generate_signature(theta, 300) == brute_force_signature(theta, 300)
    # Each of these runs past 20 blocks (a block starts at each 1), so
    # block boundaries and the integer ties at (j+1)*theta are compared.
    for theta, n in [(Fraction(3), 700), (Fraction(7, 2), 800),
                     (Fraction(50), 10_000), (Fraction(1, 7), 300),
                     (Surd.make(5, -1, 2, 2), 400)]:
        expected = brute_force_signature(theta, n)
        assert sum(t.value == 1 for t in expected) >= 20, theta
        assert generate_signature(theta, n) == expected, theta


def test_small_theta_brute_force_stays_cheap():
    # Box growth must adapt to theta < 1, where values are dense.
    assert (generate_signature(Fraction(1, 50), 500)
            == brute_force_signature(Fraction(1, 50), 500))


def test_emission_is_nondecreasing_and_ties_only_rational():
    for theta in (Fraction(5, 7), SQRT13, Surd.make(-1, 2, 3, 4)):
        terms = generate_signature(theta, 400)
        for (s1, a1), (s2, a2) in zip(terms, terms[1:]):
            c = compare_affine(s1, a1, s2, a2, theta)
            assert c <= 0
            if c == 0:
                assert isinstance(theta, Fraction)
                assert s1 > s2


def test_emitted_ranks_are_occurrence_counts():
    for theta in (Fraction(3, 8), SQRT13):
        terms = generate_signature(theta, 500)
        assert annotate_ranks([t.value for t in terms]) == terms


def test_generated_prefixes_are_doubly_fractal():
    for theta in (Fraction(1, 7), Fraction(22, 7), SQRT13, Surd.make(1, 1, 2, 3)):
        for n in (10, 100, 1000):
            values = [t.value for t in generate_signature(theta, n)]
            assert check_doubly_fractal_prefix(values).ok, (theta, n)


def test_signature_terms_is_lazy():
    stream = signature_terms(SQRT13)
    assert [next(stream).value for _ in range(5)] == [1, 2, 3, 4, 1]


# --- parsing -----------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("7", Fraction(7)),
    ("13/2", Fraction(13, 2)),
    (" 1/7 ", Fraction(1, 7)),
    ("sqrt(13)", Surd.sqrt(13)),
    ("2*sqrt(3)", Surd.make(0, 2, 3)),
    ("1+sqrt(2)", Surd.make(1, 1, 2)),
    ("sqrt(13)/2", Surd.make(0, 1, 13, 2)),
    ("(1+2*sqrt(5))/3", Surd.make(1, 2, 5, 3)),
    ("(5-sqrt(2))/3", Surd.make(5, -1, 2, 3)),
    ("sqrt(8)", Surd.make(0, 2, 2)),
])
def test_parse_theta_accepts(text, expected):
    assert parse_theta(text) == expected


@pytest.mark.parametrize("text", [
    "", "0", "-3", "1/0", "0.5", "3.14", "sqrt(-2)", "sqrt(two)",
    "1+sqrt(2)/2",          # ambiguous without parentheses
    "(1-sqrt(2))/1",        # negative value
    "sqrt(4)-2",            # malformed (constant after the root)
    "nonsense",
])
def test_parse_theta_rejects(text):
    with pytest.raises(ValueError):
        parse_theta(text)


def test_format_theta_round_trips():
    for theta in make_theta_sample(8, 8, seed=11):
        assert parse_theta(str(theta)) == theta
