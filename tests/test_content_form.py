"""The content form of a Poly, integer numerators over one denominator in
lowest terms, against the Fraction-per-term oracle of `helpers`; and the
coefficient printer beyond Python's int-to-str digit limit."""

import math
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from diolic.poly import Poly, coefficient_text, dot, parse_poly

from helpers import (oracle_add, oracle_dot, oracle_partial_sigma, oracle_scale,
                     oracle_terms, rng)

DENOMINATORS = (1, 2, 3, 4, 6, 9, 10)


def _mixed_poly(r, n, terms=4):
    """A sparse polynomial whose coefficients have mixed denominators."""
    acc = {}
    for _ in range(r.randint(0, terms)):
        sigma = tuple(r.randint(0, 3) for _ in range(n))
        acc[sigma] = Fraction(r.randint(-9, 9), r.choice(DENOMINATORS))
    return Poly(n, acc)


def assert_content_form(p):
    """num holds nonzero ints over den >= 1 in lowest terms, and the terms
    view gives an int where a coefficient is integral."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(v) is int and v for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def test_kernel_matches_fraction_oracle():
    r = rng(2601)
    for _ in range(200):
        n = r.randint(1, 3)
        p, q = _mixed_poly(r, n), _mixed_poly(r, n)
        fp, fq = oracle_terms(p), oracle_terms(q)
        k = r.choice([2, -3, 6, Fraction(1, 2), Fraction(-4, 9), Fraction(10, 3)])
        i = r.randint(1, n)
        unit = tuple(int(j == i - 1) for j in range(n))
        sigma = tuple(r.randint(0, 2) for _ in range(n))
        cases = [(p + q, oracle_add(fp, fq)), (p - q, oracle_add(fp, fq, -1)),
                 (p * q, oracle_dot([(fp, fq)])),
                 (p * k, oracle_scale(fp, k)), (k * q, oracle_scale(fq, k)),
                 (dot(n, [(p, q), (q, q), (p, p)]), oracle_dot([(fp, fq), (fq, fq), (fp, fp)])),
                 (p.partial(i), oracle_partial_sigma(fp, unit)),
                 (p.partial_sigma(sigma), oracle_partial_sigma(fp, sigma))]
        for got, want in cases:
            assert_content_form(got)
            assert oracle_terms(got) == want


def test_denominators_cancel_to_integral():
    r = rng(2602)
    for _ in range(100):
        n = r.randint(1, 3)
        p = _mixed_poly(r, n)
        whole = Poly(n, {tuple(r.randint(0, 2) for _ in range(n)): r.randint(-5, 5)
                         for _ in range(3)})
        q = whole - p
        one = Poly.one(n)
        for got in (p + q, q + p, dot(n, [(p, one), (one, q)]),
                    (p * 6 + q * 6) * Fraction(1, 6)):
            assert got == whole and got.den == 1
            assert_content_form(got)
    half = Poly(1, {(2,): Fraction(1, 2)})
    for got, sigma in ((half + half, (2,)), (half.partial(1), (1,)),
                       (half * Fraction(1, 3) * 6, (2,)),
                       (Poly(1, {(3,): Fraction(1, 6)}).partial_sigma((2,)), (1,))):
        assert (got.num, got.den) == ({sigma: 1}, 1)
        assert type(got.terms[sigma]) is int


FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


@st.composite
def poly_terms(draw, n):
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    return draw(st.dictionaries(exponents, FRACTIONS, max_size=5))


@st.composite
def two_polys(draw):
    n = draw(st.integers(1, 3))
    return n, Poly(n, draw(poly_terms(n))), Poly(n, draw(poly_terms(n)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(two_polys())
def test_stored_pair_is_canonical(case):
    """The same polynomial reached by parsing, arithmetic, dot and partial
    is stored as the same (num, den)."""
    n, p, q = case
    one = Poly.one(n)
    # an antiderivative in x1, whose partial is p
    anti = Poly(n, {(s[0] + 1,) + s[1:]: Fraction(c) / (s[0] + 1)
                    for s, c in p.terms.items()})
    for v in (parse_poly(str(p), n), (p + q) - q, q + p - q, -(-p),
              dot(n, [(p, one), (q, one), (-q, one)]), dot(n, [(p * q, one), (-q, p), (one, p)]),
              anti.partial(1), (p * 6) * Fraction(1, 6), p * Fraction(3, 7) * Fraction(7, 3)):
        assert_content_form(v)
        assert (v.n, v.num, v.den) == (p.n, p.num, p.den)


def test_coefficient_text_beyond_the_digit_limit():
    values = [3 * 10 ** 4000 * 3 * 10 ** 4000, -(7 ** 12000), 10 ** 4300, 10 ** 4299 - 1,
              2 ** 30000 + 1, Fraction(11 ** 5000, 13 ** 4000), Fraction(-1, 10 ** 5000),
              0, -5, Fraction(-7, 3)]
    texts = [coefficient_text(v) for v in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == want
    assert str(Poly(1, {(1,): 10 ** 5000})) == "1" + "0" * 5000 + "*x1"
    assert str(Poly(1, {(0,): Fraction(-1, 10 ** 5000)})) == "-1/1" + "0" * 5000
