import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_F, random_poly
from mgimplicit import (
    MultiPoly,
    NotMultihomogeneousError,
    PolyParseError,
    eval_at,
    exact_div,
    multidegree_of,
    normalize_poly,
    parameter_ring,
    parse_poly,
    target_ring,
)
from mgimplicit.regions import BlockStructure
from oracles import divides, gcd_poly, long_division, poly_pow, substitute_targets


@pytest.fixture(scope="module")
def pring():
    return parameter_ring([["s", "u"], ["t", "v"]])


@pytest.fixture(scope="module")
def tring():
    return target_ring(["X_0", "X_1", "X_2", "X_3"])


@pytest.fixture(scope="module")
def fs(pring):
    return [parse_poly(f, pring) for f in GOLDEN_F]


# -- parsing ----------------------------------------------------------------

def test_parse_two_term_fragment(pring):
    p = parse_poly("3*s^2*t*v - 2*s*u*t^2", pring)
    assert len(p.terms) == 2
    assert p.coeff((2, 0, 1, 1)) == 3
    assert p.coeff((1, 1, 2, 0)) == -2


def test_parse_zero(pring):
    assert parse_poly("0", pring).is_zero()


def test_parse_single_target_monomial(tring):
    p = parse_poly("X_0^8", tring)
    assert p.terms == {(8, 0, 0, 0): 1}


def test_parse_collects_duplicate_monomials(pring):
    # the second golden polynomial lists u^2*t^2 twice
    p = parse_poly(GOLDEN_F[1], pring)
    assert p.coeff((0, 2, 2, 0)) == 2


def test_parse_rational_coefficient(pring):
    p = parse_poly("3/2*s*t - 1/3", pring)
    assert p.coeff((1, 0, 1, 0)) == Fraction(3, 2)
    assert p.coeff((0, 0, 0, 0)) == Fraction(-1, 3)


def test_parse_unknown_variable(pring):
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("3*w^2", pring)


def test_parse_rejects_other_rings_variables(pring, tring):
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("s*X_0", pring)
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("s*X_0", tring)


def test_parse_malformed_exponent(pring):
    with pytest.raises(PolyParseError, match="exponent"):
        parse_poly("s^", pring)
    with pytest.raises(PolyParseError, match="exponent"):
        parse_poly("s^-2", pring)


def test_parse_requires_explicit_star(pring):
    with pytest.raises(PolyParseError):
        parse_poly("3 s", pring)


def test_roundtrip_parse_print(pring, tring):
    rng = random.Random(11)
    blocks = BlockStructure((1, 1))
    for _ in range(25):
        p = random_poly(pring, blocks, (rng.randint(0, 3), rng.randint(0, 3)), rng)
        assert parse_poly(str(p), pring) == p
    # with rational coefficients
    q = parse_poly("2/3*X_0^2 - X_1*X_2 + 7", tring)
    assert parse_poly(str(q), tring) == q
    assert parse_poly(str(MultiPoly.zero(tring)), tring).is_zero()


COEFF = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)
RING_BLOCKS = [[["x", "y"]], [["s", "u"], ["t", "v"]], [["a", "b"], ["c"], ["d", "e", "f"]]]


@st.composite
def polys(draw):
    """A polynomial in a 1-, 2- or 3-block ring, zero included (empty term
    list, or terms that cancel)."""
    ring = parameter_ring(draw(st.sampled_from(RING_BLOCKS)))
    exps = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    return MultiPoly.from_terms(ring, draw(st.lists(st.tuples(exps, COEFF), max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polys())
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), p.ring) == p


GRAMMAR_PIECES = ["s", "u", "t", "q", "0", "3", "12", "2/3", "*", "^", "+", "-", "/", " ", "(", "."]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=12).map("".join), st.text(max_size=16)))
def test_parse_arbitrary_text_raises_only_parse_errors(text):
    try:
        parse_poly(text, parameter_ring([["s", "u"], ["t", "v"]]))
    except PolyParseError:
        pass


# -- grading -----------------------------------------------------------------

def test_target_ring_is_the_one_block_ring():
    names = ["X", "Y", "Z"]
    assert target_ring(names) == parameter_ring([names])
    assert target_ring(2) == parameter_ring([["T_0", "T_1"]])
    assert multidegree_of(parse_poly("X^3 - 2*X*Y*Z + Z^3", target_ring(names))) == (3,)


@pytest.mark.parametrize("bad", ["X+Y", "1", "", "t v", "2x", "x.y"])
def test_rings_reject_names_the_grammar_cannot_read(bad):
    # every variable name must tokenize back as one name, or printed
    # polynomials do not parse back (``X+Y*1 - B*C``)
    for make in (lambda: target_ring(["A", bad]), lambda: parameter_ring([["s", "u"], [bad, "v"]])):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            make()


def test_multidegree_of_golden_f0(fs):
    assert multidegree_of(fs[0]) == (2, 2)


def test_multidegree_of_monomial(pring):
    assert multidegree_of(parse_poly("s*u*t*v", pring)) == (2, 2)


def test_multidegree_rejects_mixed_blocks(pring):
    with pytest.raises(NotMultihomogeneousError):
        multidegree_of(parse_poly("s^2 + t^2", pring))


def test_multidegree_rejects_zero(pring):
    with pytest.raises(NotMultihomogeneousError):
        multidegree_of(MultiPoly.zero(pring))


def test_multidegree_additive_under_product(fs, pring):
    assert multidegree_of(fs[0] * fs[1]) == (4, 4)
    rng = random.Random(3)
    blocks = BlockStructure((1, 1))
    for _ in range(10):
        p = random_poly(pring, blocks, (rng.randint(0, 2), rng.randint(0, 2)), rng)
        q = random_poly(pring, blocks, (rng.randint(0, 2), rng.randint(0, 2)), rng)
        dp, dq = multidegree_of(p), multidegree_of(q)
        assert multidegree_of(p * q) == (dp[0] + dq[0], dp[1] + dq[1])


# -- arithmetic ---------------------------------------------------------------

def test_add_inverse_is_zero(fs):
    assert (fs[0] + fs[0].scale(-1)).is_zero()


def test_difference_of_squares(pring):
    s = parse_poly("s", pring)
    u = parse_poly("u", pring)
    assert (s + u) * (s - u) == s * s - u * u


@pytest.mark.parametrize("value", [1, -2, Fraction(3, 4)], ids=["one", "int", "fraction"])
def test_product_with_a_constant_keeps_the_exponent_tuples(fs, pring, value):
    # the same terms, in the same order, as term-by-term multiplication,
    # keyed by the factor's own exponent tuples: a result kept in memory
    # holds no second copy of them
    p = fs[0]
    c = MultiPoly.constant(pring, value)
    expected = {e: k * value for e, k in p.terms.items()}
    for product in (c * p, p * c):
        assert list(product.terms.items()) == list(expected.items())
        assert all(a is b for a, b in zip(product.terms, p.terms))


def test_mixed_ring_arithmetic_rejected(pring, tring):
    from mgimplicit import RingMismatchError

    with pytest.raises(RingMismatchError):
        parse_poly("s", pring) + parse_poly("X_0", tring)


def test_pow(pring):
    p = poly_pow(parse_poly("s + u", pring), 3)
    assert p.coeff((2, 1, 0, 0)) == 3
    assert poly_pow(p, 0) == 1


@pytest.mark.parametrize("value", [2, Fraction(-3, 4), 0], ids=["int", "fraction", "zero"])
def test_constants_hash_like_their_values(pring, value):
    # a constant polynomial equals its value, so sets and dicts find it by it
    c = MultiPoly.constant(pring, value)
    assert c == value and hash(c) == hash(value)
    assert value in {c} and c in {value}
    assert {c: 1}[value] == 1
    # the zero polynomial made by cancellation too
    if value == 0:
        assert hash(parse_poly("s", pring) - parse_poly("s", pring)) == hash(0)


# -- substitution and evaluation ----------------------------------------------

def test_substitute_difference_vanishes(fs, tring):
    p = parse_poly("X_0 - X_1", tring)
    assert substitute_targets(p, (fs[0], fs[0], fs[2], fs[3])).is_zero()


def test_substitute_single_variable(fs, tring):
    assert substitute_targets(parse_poly("X_0", tring), fs) == fs[0]


def test_substitute_arity_mismatch(fs, tring):
    with pytest.raises(ValueError, match="arity"):
        substitute_targets(parse_poly("X_0", tring), fs[:3])


def test_substitute_is_ring_homomorphism(pring, tring):
    rng = random.Random(17)
    blocks = BlockStructure((1, 1))
    images = [random_poly(pring, blocks, (1, 1), rng) for _ in range(4)]

    def rand_target():
        terms = {}
        for _ in range(4):
            e = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                e[rng.randint(0, 3)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
        return MultiPoly.from_terms(tring, terms.items())

    for _ in range(10):
        p, q = rand_target(), rand_target()
        sub = lambda x: substitute_targets(x, images)
        assert sub(p + q) == sub(p) + sub(q)
        assert sub(p * q) == sub(p) * sub(q)


def test_eval_constant(pring):
    assert eval_at(MultiPoly.constant(pring, Fraction(7, 2)), {}) == Fraction(7, 2)


def test_eval_single_variable(pring):
    assert eval_at(parse_poly("s", pring), {"s": 5}) == 5


def test_eval_reads_off_pure_coefficient(fs):
    # at (s,u,t,v) = (1,0,1,0) only the s^2*t^2 monomial survives
    point = {"s": 1, "u": 0, "t": 1, "v": 0}
    for f in fs:
        assert eval_at(f, point) == f.coeff((2, 0, 2, 0))


def test_eval_missing_assignment(pring):
    with pytest.raises(ValueError, match="missing assignment"):
        eval_at(parse_poly("s*t", pring), {"s": 1})


def test_eval_needs_only_the_variables_in_use(pring):
    # u, t and v appear in no term; the first used variable missing is named
    assert eval_at(parse_poly("3*s^2 - 1", pring), {"s": 2}) == 11
    with pytest.raises(ValueError, match="missing assignment for variable 'u'"):
        eval_at(parse_poly("s*u + t*v", pring), {"s": 1, "v": 2})


# -- gcd and division ----------------------------------------------------------

def test_gcd_with_zero_normalizes(tring):
    p = parse_poly("4*X_0^2 - 6*X_0*X_1", tring)
    g = gcd_poly(p, MultiPoly.zero(tring))
    assert g == parse_poly("2*X_0^2 - 3*X_0*X_1", tring)
    assert gcd_poly(MultiPoly.zero(tring), MultiPoly.zero(tring)).is_zero()


def test_gcd_constructed_common_factor(tring):
    d = parse_poly("X_0 - X_1", tring)
    p = d * parse_poly("X_2", tring)
    q = d * parse_poly("X_3", tring)
    assert gcd_poly(p, q) == d


def test_gcd_recovers_random_shared_factor(tring):
    rng = random.Random(23)

    def rand_poly(deg):
        terms = {}
        for _ in range(5):
            e = [0, 0, 0, 0]
            for _ in range(deg):
                e[rng.randint(0, 3)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-4, 4)
        p = MultiPoly.from_terms(tring, terms.items())
        return p if not p.is_zero() else rand_poly(deg)

    for _ in range(8):
        shared = normalize_poly(rand_poly(2))
        p = shared * rand_poly(2)
        q = shared * rand_poly(2)
        if p.is_zero() or q.is_zero():
            continue
        g = gcd_poly(p, q)
        assert divides(shared, g)
        assert divides(g, p) and divides(g, q)


def test_gcd_divides_both_arguments(tring):
    rng = random.Random(31)
    for _ in range(10):
        terms_p = {(rng.randint(0, 2), rng.randint(0, 2), 0, 0): rng.randint(-5, 5) for _ in range(4)}
        terms_q = {(rng.randint(0, 2), 0, rng.randint(0, 2), 0): rng.randint(-5, 5) for _ in range(4)}
        p = MultiPoly.from_terms(tring, terms_p.items())
        q = MultiPoly.from_terms(tring, terms_q.items())
        if p.is_zero() or q.is_zero():
            continue
        g = gcd_poly(p, q)
        assert divides(g, p) and divides(g, q)


def test_exact_div_roundtrip(tring):
    p = parse_poly("X_0^2 - X_1^2", tring)
    d = parse_poly("X_0 + X_1", tring)
    assert exact_div(p, d) == parse_poly("X_0 - X_1", tring)
    with pytest.raises(ValueError):
        exact_div(parse_poly("X_0^2 + X_1", tring), d)


@pytest.mark.parametrize(
    "divisor, quotient",
    [
        ("2", "3*X_0^2*X_1 - 2*X_0*X_1^2 + 1/3*X_1^3"),
        ("-2*X_1", "-3*X_0^2 + 2*X_0*X_1 - 1/3*X_1^2"),
        ("X_0", None),
    ],
    ids=["constant", "monomial", "monomial-not-dividing"],
)
def test_exact_div_one_term_divisor(tring, divisor, quotient):
    p = parse_poly("6*X_0^2*X_1 - 4*X_0*X_1^2 + 2/3*X_1^3", tring)
    d = parse_poly(divisor, tring)
    if quotient is None:
        with pytest.raises(ValueError, match="inexact"):
            exact_div(p, d)
        assert not divides(d, p)
    else:
        assert exact_div(p, d) == parse_poly(quotient, tring)
        assert exact_div(p, d) * d == p


@st.composite
def divisions(draw):
    """``(p, q)``: a product ``a * q`` in a ring of one to three blocks,
    rational coefficients included, or that product plus a term that no
    multiple of ``q`` has room for (``q`` does not divide it)."""
    ring = parameter_ring(draw(st.sampled_from(RING_BLOCKS)))
    exps = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    term_lists = st.lists(st.tuples(exps, COEFF), min_size=1, max_size=6)
    a = MultiPoly.from_terms(ring, draw(term_lists))
    q = MultiPoly.from_terms(ring, draw(term_lists))
    assume(not q.is_zero())
    p = a * q
    if draw(st.booleans()):
        lead = q.leading()[0]
        # a term below the leading exponent of q in some variable
        k = draw(st.sampled_from([i for i, x in enumerate(lead) if x] or [None]))
        assume(k is not None)
        e = list(draw(exps))
        e[k] = draw(st.integers(0, lead[k] - 1))
        p = p + MultiPoly.monomial(ring, e, draw(COEFF.filter(bool)))
    return p, q


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(divisions())
def test_exact_div_matches_long_division(case):
    p, q = case
    try:
        expected = long_division(p, q)
    except ValueError:
        with pytest.raises(ValueError, match="inexact"):
            exact_div(p, q)
        return
    got = exact_div(p, q)
    assert got == expected and got * q == p
    # integral quotient coefficients are ints, as everywhere in the package
    assert str(got) == str(expected)
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def test_normalize_poly(tring):
    p = parse_poly("2/3*X_0 - 4/3*X_1", tring)
    assert normalize_poly(p) == parse_poly("X_0 - 2*X_1", tring)
    assert normalize_poly(-p) == parse_poly("X_0 - 2*X_1", tring)


def test_normalize_poly_divides_integer_coefficients_by_their_gcd(tring):
    # integer coefficients are divided by their gcd with //; the same
    # polynomial with Fraction coefficients takes the rational path
    p = parse_poly("-6*X_0^2 + 4*X_0*X_1 - 10*X_1^2", tring)
    rational = MultiPoly(tring, {e: Fraction(c) for e, c in p.terms.items()})
    expected = parse_poly("3*X_0^2 - 2*X_0*X_1 + 5*X_1^2", tring)
    for q in (p, rational, -p):
        got = normalize_poly(q)
        assert got == expected and all(type(c) is int for c in got.terms.values())
        assert list(got.terms) == list(q.terms)
