"""Construction, validation, normalization and classification of quadratic forms.

A form is a symmetric d x d matrix with exact (rational + surd) or float
entries.  Eigen data is always float; exact entries additionally make the
rationality question decidable: Q is rational when some nonzero real multiple
of its matrix has integer entries only, which happens exactly when all
pairwise ratios of nonzero entries are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .scalars import ExactScalar, parse_exact_scalar

DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class RationalityVerdict:
    kind: str  # "rational" | "irrational" | "unknown"
    multiplier: Optional[ExactScalar] = None  # minimal positive M with MQ integral
    witness: Optional[tuple[tuple[int, int], tuple[int, int]]] = None  # entry index pair

    def __str__(self):
        if self.kind == "rational":
            return f"rational (M = {self.multiplier})"
        if self.kind == "irrational":
            return f"irrational (witness entries {self.witness})"
        return "unknown"


@dataclass(frozen=True)
class QuadraticForm:
    """Nondegenerate symmetric real quadratic form Q[x] = <Qx, x>."""

    dim: int
    matrix: np.ndarray                      # float, symmetric
    exact_entries: Optional[tuple]          # row-major tuple of ExactScalar, or None
    eigenvalues: np.ndarray                 # ascending
    eigenvectors: np.ndarray                # columns match eigenvalues
    signature: tuple[int, int]              # (n_pos, n_neg)
    rationality: RationalityVerdict = field(compare=False)

    @property
    def q0(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))

    @property
    def q(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def is_positive(self) -> bool:
        return self.signature[1] == 0

    @property
    def is_indefinite(self) -> bool:
        return self.signature[0] > 0 and self.signature[1] > 0

    @property
    def is_diagonal(self) -> bool:
        off = self.matrix - np.diag(np.diagonal(self.matrix))
        return not np.any(off)

    @property
    def is_exact(self) -> bool:
        return self.exact_entries is not None

    def exact_entry(self, i: int, j: int) -> ExactScalar:
        if self.exact_entries is None:
            raise ValueError("form has float entries")
        return self.exact_entries[i * self.dim + j]

    def exact_diagonal(self) -> list[ExactScalar]:
        return [self.exact_entry(j, j) for j in range(self.dim)]

    def __call__(self, x) -> float:
        """Evaluate Q[x] with the float matrix."""
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x)

    def evaluate_eigen(self, x) -> float:
        """Evaluate Q[x] through the eigendecomposition (cross-check path)."""
        x = np.asarray(x, dtype=float)
        y = self.eigenvectors.T @ x
        return float(np.sum(self.eigenvalues * y * y))

    def __repr__(self):
        return (f"QuadraticForm(d={self.dim}, signature={self.signature}, "
                f"q0={self.q0:.6g}, q={self.q:.6g}, {self.rationality})")


@dataclass(frozen=True)
class ShiftVector:
    """Shift a of Q[x - a], with its reduction a - m, m integer, into [0,1)^d."""

    a: np.ndarray

    @staticmethod
    def of(values) -> "ShiftVector":
        return ShiftVector(np.asarray(values, dtype=float))

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (a - m, m) with each coordinate of a - m in [0, 1)."""
        m = np.floor(self.a)
        return self.a - m, m.astype(int)


def shift_array(form: QuadraticForm, a) -> np.ndarray:
    """The shift `a` (a ShiftVector or a sequence) as a float array of
    form.dim entries; ValueError for any other shape."""
    if isinstance(a, ShiftVector):
        a = a.a
    a = np.asarray(a, dtype=float)
    if a.shape != (form.dim,):
        raise ValueError(f"shift of shape {a.shape} for a form of dimension {form.dim}")
    return a


def build_form(entries, normalize: bool = True) -> QuadraticForm:
    """Build a QuadraticForm from a symmetric scalar matrix.

    `entries` is a nested sequence whose cells are ExactScalar, Fraction, int
    (exact mode) or float (float mode; any float cell makes the whole form
    float).  With `normalize`, all entries are divided by q0 so that the
    minimal absolute eigenvalue becomes 1.  Exactness is preserved when the
    division can be done in the scalar field (diagonal exact forms), and the
    rationality verdict then describes the normalized entries; otherwise
    entries fall back to floats and the verdict, whose kind is invariant
    under real scaling, has the multiplier of the entries as given.
    """
    rows = [list(r) for r in entries]
    d = len(rows)
    if d < 1 or any(len(r) != d for r in rows):
        raise ValueError("entries must form a square matrix with d >= 1")

    is_exact = True
    flat: list = []
    for r in rows:
        for cell in r:
            if isinstance(cell, ExactScalar):
                flat.append(cell)
            elif isinstance(cell, (int, Fraction)):
                flat.append(ExactScalar(cell))
            elif isinstance(cell, str):
                flat.append(parse_exact_scalar(cell))
            else:
                is_exact = False
                flat.append(float(cell))
    if is_exact:
        exact = [c if isinstance(c, ExactScalar) else ExactScalar(c) for c in flat]
        for i in range(d):
            for j in range(i + 1, d):
                if exact[i * d + j] != exact[j * d + i]:
                    raise ValueError("not symmetric")
        mat = np.array([[float(exact[i * d + j]) for j in range(d)] for i in range(d)])
    else:
        exact = None
        mat = np.array([[float(flat[i * d + j]) for j in range(d)] for i in range(d)])
        mat = (mat + mat.T) / 2.0  # symmetrize float input exactly once

    w, v = np.linalg.eigh(mat)
    qmax = float(np.max(np.abs(w)))
    if qmax == 0.0 or float(np.min(np.abs(w))) <= DEGENERACY_RTOL * qmax:
        raise ValueError("degenerate form")

    verdict = _classify_entries(exact, d)

    if normalize:
        q0 = float(np.min(np.abs(w)))
        if exact is not None:
            diag_ok = all(exact[i * d + j].is_zero for i in range(d) for j in range(d) if i != j)
            if diag_ok:
                # q0 is the minimal |diagonal entry|, exactly representable
                q0_exact = min((abs(exact[j * d + j]) for j in range(d)),
                               key=lambda s: float(s))
                exact = [c / q0_exact for c in exact]
                mat = np.array([[float(exact[i * d + j]) for j in range(d)]
                                for i in range(d)])
                verdict = _classify_entries(exact, d)
            else:
                exact = None
                mat = mat / q0
        else:
            mat = mat / q0
        w, v = np.linalg.eigh(mat)

    n_pos = int(np.sum(w > 0))
    n_neg = int(np.sum(w < 0))
    return QuadraticForm(
        dim=d,
        matrix=mat,
        exact_entries=tuple(exact) if exact is not None else None,
        eigenvalues=w,
        eigenvectors=v,
        signature=(n_pos, n_neg),
        rationality=verdict,
    )


def diagonal_form(diag_entries, normalize: bool = False) -> QuadraticForm:
    """Convenience constructor for diagonal forms."""
    d = len(diag_entries)
    zero = ExactScalar(0)
    entries = [[diag_entries[i] if i == j else
                (zero if not isinstance(diag_entries[i], float) else 0.0)
                for j in range(d)] for i in range(d)]
    return build_form(entries, normalize=normalize)


def _classify_entries(exact: Optional[list[ExactScalar]], d: int) -> RationalityVerdict:
    if exact is None:
        return RationalityVerdict("unknown")
    nonzero = [(i, c) for i, c in enumerate(exact) if not c.is_zero]
    if not nonzero:
        return RationalityVerdict("unknown")
    i0, pivot = nonzero[0]
    ratios: list[tuple[int, Fraction]] = []
    for i, c in nonzero:
        ratio = c / pivot
        if not ratio.is_rational:
            return RationalityVerdict(
                "irrational",
                witness=((i0 // d, i0 % d), (i // d, i % d)),
            )
        ratios.append((i, ratio.as_fraction()))
    # Q = pivot * B with B rational; minimal L > 0 with L*B integral is
    # lcm(denominators) / gcd(numerators); then M = L / |pivot|.
    num_gcd, den_lcm = 0, 1
    for _, f in ratios:
        num_gcd = math.gcd(num_gcd, abs(f.numerator))
        den_lcm = math.lcm(den_lcm, f.denominator)
    L = Fraction(den_lcm, num_gcd)
    M = ExactScalar(L) / abs(pivot)
    return RationalityVerdict("rational", multiplier=M)


def classify_rationality(form: QuadraticForm) -> RationalityVerdict:
    """Rationality of Q: is some nonzero real multiple of Q an integer matrix?

    Exact entries: decidable, rational iff all pairwise entry ratios are
    rational; returns the minimal positive multiplier M, or a witness pair of
    entries with irrational ratio.  Float entries: unknown.  This is the
    verdict `build_form` stored (see there for forms that lost exactness
    to normalization).
    """
    return form.rationality


def parse_form_file(text: str) -> QuadraticForm:
    """Parse the form file format: a `kind: exact|float` header, then one
    matrix cell per line, row-major; `#` starts a comment."""
    lines = text.splitlines()
    kind = None
    cells: list = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            if not line.lower().startswith("kind:"):
                raise ValueError(f"line {lineno}: expected 'kind: exact|float' header")
            kind = line.split(":", 1)[1].strip().lower()
            if kind not in ("exact", "float"):
                raise ValueError(f"line {lineno}: kind must be 'exact' or 'float'")
            continue
        try:
            if kind == "exact":
                cells.append(parse_exact_scalar(line))
            else:
                cells.append(float(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if kind is None:
        raise ValueError("line 1: missing 'kind:' header")
    d = math.isqrt(len(cells))
    if d * d != len(cells) or d < 1:
        raise ValueError(f"line {len(lines)}: got {len(cells)} cells, not a square count")
    entries = [[cells[i * d + j] for j in range(d)] for i in range(d)]
    return build_form(entries, normalize=False)
