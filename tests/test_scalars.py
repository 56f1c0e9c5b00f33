import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from qflab.scalars import ExactScalar, parse_exact_scalar, squarefree_split


def test_squarefree_split():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(36) == (6, 1)
    assert squarefree_split(45) == (3, 5)


def test_canonicalization_merges_radicands():
    s = ExactScalar.sqrt(8) - ExactScalar.sqrt(2) * 2
    assert s.is_zero


def test_field_operations():
    s2 = ExactScalar.sqrt(2)
    s3 = ExactScalar.sqrt(3)
    x = ExactScalar(Fraction(1, 2)) + s2 + s3
    assert (x * x.inverse()) == ExactScalar(1)
    assert s2 * s3 == ExactScalar.sqrt(6)
    assert (s2 * s2) == ExactScalar(2)
    y = ExactScalar(1) / (ExactScalar(1) + s2)
    assert y == s2 - 1


def test_comparisons_and_sign():
    s2 = ExactScalar.sqrt(2)
    assert s2 > Fraction(7, 5)
    assert s2 < Fraction(3, 2)
    assert (s2 - s2).sign() == 0
    # 1 + sqrt(2) - sqrt(3): nonzero, sign decided exactly
    z = ExactScalar(1) + s2 - ExactScalar.sqrt(3)
    assert z.sign() == 1
    assert abs(ExactScalar(-3)) == ExactScalar(3)


def _decimal_sign(x: ExactScalar) -> int:
    """Independent oracle: evaluate the surd sum with 200 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 200
        v = sum(Decimal(c.numerator) / Decimal(c.denominator) * Decimal(n).sqrt()
                for n, c in x.terms.items())
        assert abs(v) > Decimal(10) ** -150, "oracle cannot decide"
        return 1 if v > 0 else -1


def _decimal_approx(radicands, digits: int) -> Fraction:
    """sum of sqrt(n) truncated to `digits` decimals (a lower bound)."""
    with localcontext() as ctx:
        ctx.prec = 200
        v = sum(Decimal(n).sqrt() for n in radicands)
        return Fraction(int(v.scaleb(digits)), 10 ** digits)


def test_sign_matches_decimal_oracle_on_random_surds():
    rng = random.Random(20)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 35, 105]
    for _ in range(300):
        terms = {n: Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                 for n in [1] + rng.sample(radicands, 4)}
        x = ExactScalar(terms=terms)
        if not x.is_zero:
            assert x.sign() == _decimal_sign(x)


def test_sign_exact_near_zero():
    # convergents p/q of sqrt(2) alternate around it, |p/q - sqrt(2)| ~ q^-2
    p, q = 1, 1
    for i in range(30):
        x = ExactScalar(Fraction(p, q)) - ExactScalar.sqrt(2)
        assert x.sign() == (-1 if i % 2 == 0 else 1) == _decimal_sign(x)
        p, q = p + 2 * q, p + q
    # sqrt(2) + sqrt(3) - F with F its truncation, and F + 10^-digits above it
    s = ExactScalar.sqrt(2) + ExactScalar.sqrt(3)
    for digits in (10, 30, 60):
        low = _decimal_approx([2, 3], digits)
        above = low + Fraction(1, 10 ** digits)
        assert (s - low).sign() == 1 == _decimal_sign(s - low)
        assert (s - above).sign() == -1 == _decimal_sign(s - above)
        assert s > low and s < above


def _sign_cases():
    """Random 4-radicand scalars, exact and near cancellations, and scalars
    the float filter must leave to the symbolic path."""
    rng = random.Random(9)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 35, 105]
    cases = [ExactScalar(terms={n: Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                                for n in [1] + rng.sample(radicands, 4)})
             for _ in range(200)]
    s2, s3 = ExactScalar.sqrt(2), ExactScalar.sqrt(3)
    cases.append((s2 + s3) * (s2 + s3) - (ExactScalar(5) + 2 * ExactScalar.sqrt(6)))
    f = Fraction(math.sqrt(2))           # the double nearest sqrt(2)
    for eps in (0, Fraction(1, 10 ** 13), -Fraction(1, 10 ** 13),
                Fraction(1, 10 ** 17), -Fraction(1, 10 ** 17), Fraction(1, 10 ** 40)):
        cases.append(s2 - f + eps)
    big = Fraction(10 ** 30)
    cases += [big * s2 - big * f, big * (s2 + s3) - big * _decimal_approx([2, 3], 40),
              ExactScalar(Fraction(1, 10 ** 300)) * s2 - Fraction(1, 10 ** 300) * f]
    return cases


def test_float_filter_agrees_with_the_symbolic_sign(monkeypatch):
    cases = _sign_cases()
    filtered = [x.sign() for x in cases]
    decided = [None if x.is_zero else x._float_sign() for x in cases]
    monkeypatch.setattr(ExactScalar, "_float_sign", lambda self: None)
    assert filtered == [x.sign() for x in cases]
    assert filtered[200] == 0                       # (sqrt2 + sqrt3)^2 - (5 + 2 sqrt6)
    # the filter decides the clear cases and defers the close ones
    assert all(v is not None for v in decided[:200] if v != 0)
    assert decided[201:203] == [None, 1]            # sqrt2 - f, then + 1e-13
    assert decided[204] is None and decided[206] is None


def test_float_filter_spares_the_recursion_on_four_radicand_primes(monkeypatch):
    """The symbolic recursion splits 3^k times for k primes; the filter
    decides these 300 scalars over 2, 3, 5, 7 without one split."""
    rng = random.Random(3)
    radicands = [2, 3, 5, 7, 6, 10, 14, 15, 21, 35, 30, 42, 70, 105, 210]
    xs = [ExactScalar(terms={n: Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                             for n in [1] + radicands}) for _ in range(300)]
    splits = []
    split = ExactScalar._split
    monkeypatch.setattr(ExactScalar, "_split",
                        lambda self: splits.append(1) or split(self))
    assert [x.sign() for x in xs] == [_decimal_sign(x) for x in xs]
    assert not splits


def test_float_value():
    v = float(ExactScalar(Fraction(1, 2)) + ExactScalar.sqrt(2) * Fraction(3, 4))
    assert v == pytest.approx(0.5 + 0.75 * math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("text,value", [
    ("7", 7.0),
    ("-3/4", -0.75),
    ("1/2+3/4*sqrt(5)", 0.5 + 0.75 * math.sqrt(5)),
    ("sqrt(2)", math.sqrt(2)),
    ("-sqrt(2)", -math.sqrt(2)),
    ("2-1/2*sqrt(3)", 2 - 0.5 * math.sqrt(3)),
])
def test_parse_grammar(text, value):
    assert float(parse_exact_scalar(text)) == pytest.approx(value, rel=1e-14)


def test_parse_rejects_garbage():
    for bad in ("", "1.5x", "sqrt()", "1//2", "a+b"):
        with pytest.raises(ValueError):
            parse_exact_scalar(bad)
