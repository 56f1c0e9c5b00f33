"""Exact scalars: rationals plus Q-linear combinations of square-root surds.

A scalar is stored canonically as a map {squarefree radicand n: coefficient},
with radicand 1 holding the rational part.  The set of such scalars is a field
(Q adjoined finitely many square roots), so sums, products and quotients stay
exactly representable.  This is enough to make rationality of every example
form decidable without general algebraic-number machinery.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree, for n >= 1."""
    if n < 1:
        raise ValueError("radicand must be a positive integer")
    s, m, d = 1, n, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        d += 1
    return s, m


class ExactScalar:
    """Element of Q(sqrt(n_1), ..., sqrt(n_k)) in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, rational=0, terms: dict[int, Fraction] | None = None):
        acc: dict[int, Fraction] = {}
        if rational:
            acc[1] = Fraction(rational)
        if terms:
            for n, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                s, m = squarefree_split(int(n))
                acc[m] = acc.get(m, Fraction(0)) + c * s
        self.terms = {n: c for n, c in acc.items() if c != 0}

    @staticmethod
    def sqrt(n: int, coeff=1) -> "ExactScalar":
        return ExactScalar(terms={n: Fraction(coeff)})

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(n == 1 for n in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.terms.get(1, Fraction(0))

    def radicands(self) -> set[int]:
        return {n for n in self.terms if n != 1}

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for n, c in other.terms.items():
            acc[n] = acc.get(n, Fraction(0)) + c
        return ExactScalar(terms=acc)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(terms={n: -c for n, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                s, m = squarefree_split(n1 * n2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2 * s
        return ExactScalar(terms=acc)

    __rmul__ = __mul__

    def _split(self) -> tuple[int, "ExactScalar", "ExactScalar"]:
        """(p, A, B) with self = A + sqrt(p) * B, p a prime dividing some
        radicand; A and B involve only radicands free of p, and B != 0."""
        n0 = next(n for n in self.terms if n != 1)
        p = _smallest_prime_factor(n0)
        a_terms: dict[int, Fraction] = {}
        b_terms: dict[int, Fraction] = {}
        for n, c in self.terms.items():
            if n % p == 0:
                b_terms[n // p] = c  # c*sqrt(n) = sqrt(p) * c*sqrt(n/p)
            else:
                a_terms[n] = c
        return p, ExactScalar(terms=a_terms), ExactScalar(terms=b_terms)

    def inverse(self) -> "ExactScalar":
        """Exact reciprocal via repeated conjugation, one radicand prime at a time."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero exact scalar")
        if self.is_rational:
            return ExactScalar(1 / self.as_fraction())
        p, A, B = self._split()
        # 1/(A + sqrt(p) B) = (A - sqrt(p) B) / (A^2 - p B^2); denominator drops p
        denom = A * A - ExactScalar(p) * B * B
        inv_denom = denom.inverse()
        return (A - ExactScalar.sqrt(p) * B) * inv_denom

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def sign(self) -> int:
        """Exact sign: the certified float filter `_float_sign` when it
        decides, else symbolically one radicand prime at a time.

        With self = A + sqrt(p) B and B != 0: if A = 0 or A and B share a
        sign, that is the sign; otherwise the larger of A^2 and p B^2 wins,
        and A^2 - p B^2 != 0 because sqrt(p) is not in the field of A and B.
        """
        if self.is_zero:
            return 0
        if self.is_rational:
            f = self.as_fraction()
            return 1 if f > 0 else -1
        filtered = self._float_sign()
        if filtered is not None:
            return filtered
        p, A, B = self._split()
        sa, sb = A.sign(), B.sign()
        if sa in (0, sb):
            return sb
        return sa * (A * A - ExactScalar(p) * B * B).sign()

    def _float_sign(self) -> int | None:
        """The sign of the float value if it clears a proven error bound.

        c, sqrt(n) and their product round once each (radicands below 2^53,
        terms far above underflow) and fsum once more, so the float sum is
        within 4.0001 * 2^-53 * sum |term| of the value; 2^-50 times the
        float sum of |term| covers that.  None on overflow or inside it.
        """
        try:
            terms = [float(c) * math.sqrt(n) for n, c in self.terms.items()]
            total, bound = math.fsum(terms), 2.0 ** -50 * math.fsum(map(abs, terms))
        except OverflowError:
            return None
        if (max(self.terms) >= 2 ** 53 or min(map(abs, terms)) < 2.0 ** -960
                or not abs(total) > bound or not math.isfinite(bound)):
            return None
        return 1 if total > 0 else -1

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(
            sum(float(c) * math.sqrt(n) for n, c in self.terms.items())
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            if n == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({n})")
            else:
                parts.append(f"{c}*sqrt({n})")
        return " + ".join(parts).replace("+ -", "- ")


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


_TERM_RE = re.compile(
    r"""^
    (?:
        (?P<coeff>[+-]?\d+(?:/\d+)?)            # rational, maybe alone
        (?:\*?\s*sqrt\((?P<rad1>\d+)\))?        # optional *sqrt(n)
      | (?P<sign>[+-]?)\s*sqrt\((?P<rad2>\d+)\) # bare sqrt(n)
    )$""",
    re.VERBOSE,
)


def parse_exact_scalar(text: str) -> ExactScalar:
    """Parse the exact-scalar grammar: `p`, `p/q`, `p/q*sqrt(n)`, sums thereof."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split on top-level +/- while keeping signs attached
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse scalar {text!r}")
    out = ExactScalar(0)
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse scalar term {chunk!r} in {text!r}")
        if m.group("rad2") is not None:
            coeff = Fraction(-1 if m.group("sign") == "-" else 1)
            rad = int(m.group("rad2"))
        else:
            coeff = Fraction(m.group("coeff"))
            rad = int(m.group("rad1")) if m.group("rad1") else 1
        out = out + ExactScalar(terms={rad: coeff})
    return out
