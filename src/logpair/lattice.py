"""Rational surface models and their intersection lattices.

Every model is described the same way: a leading block of basis classes
with its Gram matrix, kept once as integers over one common denominator,
followed by ``num_points`` exceptional curves E1, ..., En, each of
square -1 and orthogonal to everything else.  The block is H (H^2 = 1)
for ``plane_blowup(n)``; (Dinf, Gamma) with Dinf^2 = e, Dinf.Gamma = 1
and Gamma^2 = 0 for ``hirzebruch(e, n)``; and the whole user-supplied
Gram matrix for ``custom(gram)``, a bare lattice for dual-graph-only
workflows, which has no exceptional curves.  Classes are exact rational
coefficient vectors, stored as integer numerators over one common
denominator; every pairing leaves this module as an exact value.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError


class ModelKind(Enum):
    P2_BLOWUP = "p2_blowup"
    HIRZEBRUCH = "hirzebruch"
    CUSTOM = "custom"


# ASCII digits only, as `\d` takes the digits of other scripts too; the
# integer test, cheaper and almost always the one that matches, runs first
INTEGER_RE = re.compile(r"[+-]?[0-9]+")
RATIONAL_RE = re.compile(INTEGER_RE.pattern + r"(/[1-9][0-9]*)?")


def parse_rational(v) -> int | Fraction:
    """The one reader of an exact number from outside: an int from an int
    or a "p" string, a Fraction from a Fraction or a "p/q" string.

    Floats, booleans and every other spelling (such as "1.5" or "1_0")
    are rejected with InputError, so no inexact value enters a class; so
    is a string with more digits than Python converts to an int.
    """
    if isinstance(v, str):  # tested first: Fraction's check is slow
        pq = not INTEGER_RE.fullmatch(v)
        if pq and not RATIONAL_RE.fullmatch(v):
            raise InputError(f"malformed rational {v!r}; use p or p/q")
        try:
            return Fraction(v) if pq else int(v)
        except ValueError:  # more digits than an int conversion takes
            raise InputError(f"{'rational' if pq else 'integer'} of "
                             f"{len(v)} characters has too many digits")
    if type(v) is int or isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise InputError(f"expected a rational, got {v!r}")
    if isinstance(v, float):
        raise InputError(
            f"floating point value {v!r} rejected; use p/q strings")
    raise InputError(f"expected a rational, got {type(v).__name__}")


class DivisorClass:
    """An immutable class in a fixed model basis.

    Stored as integer numerators ``nums`` over one denominator ``den``,
    kept canonical (``den > 0``, ``gcd(den, *nums) == 1``) so equal
    classes have equal fields.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        vals = tuple(coeffs)
        if all(type(c) is int for c in vals):
            nums, den = vals, 1
        else:
            fracs = [parse_rational(c) for c in vals]
            den = lcm(*(f.denominator for f in fracs))
            nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, nums: tuple, den: int) -> "DivisorClass":
        """Build from integer numerators over a positive denominator,
        reducing to lowest terms without re-validating."""
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        obj = object.__new__(cls)
        object.__setattr__(obj, "nums", nums)
        object.__setattr__(obj, "den", den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    def __len__(self):
        return len(self.nums)

    def __eq__(self, other):
        return (isinstance(other, DivisorClass) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def _combine(self, other: "DivisorClass", op) -> "DivisorClass":
        if len(self) != len(other):
            raise InputError("dimension mismatch")
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return DivisorClass._make(
            tuple(op(a * fa, b * fb) for a, b in zip(self.nums, other.nums)),
            da * fa)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, sub)

    def __mul__(self, scalar):
        s = parse_rational(scalar)
        return DivisorClass._make(
            tuple(n * s.numerator for n in self.nums), self.den * s.denominator)

    __rmul__ = __mul__

    def __repr__(self):
        den = self.den
        return "DivisorClass(%s)" % ", ".join(
            str(Fraction(n, den)) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_integral(self) -> bool:
        return self.den == 1


class HodgeData(NamedTuple):
    q: int
    p_g: int
    h11: int
    euler_e: int

    @property
    def is_rational_type(self) -> bool:
        return self.q == 0 and self.p_g == 0


class SurfaceModel(NamedTuple):
    kind: ModelKind
    degree_e: int
    num_points: int
    # the leading block's Gram matrix: per row, its non-zero columns and
    # their entries times gram_den, the common denominator, as integers
    gram_ints: tuple
    gram_den: int = 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def plane_blowup(n: int) -> "SurfaceModel":
        if n < 0:
            raise InputError("number of blown-up points must be >= 0")
        return SurfaceModel(ModelKind.P2_BLOWUP, 0, n, (((0,), (1,)),))

    @staticmethod
    def hirzebruch(e: int, n: int) -> "SurfaceModel":
        if e < 0:
            raise InputError("Hirzebruch degree must be >= 0")
        if n < 0:
            raise InputError("number of blown-up points must be >= 0")
        dinf = ((0, 1), (e, 1)) if e else ((1,), (1,))
        return SurfaceModel(ModelKind.HIRZEBRUCH, e, n,
                            (dinf, ((0,), (1,))))

    @staticmethod
    def custom(gram: Sequence[Sequence]) -> "SurfaceModel":
        rows = [[parse_rational(x) for x in row] for row in gram]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("Gram matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise InputError("Gram matrix must be symmetric")
        den = lcm(*(x.denominator for row in rows for x in row))
        ints = []
        for row in rows:
            cols = tuple(j for j, x in enumerate(row) if x)
            ints.append((cols, tuple(row[j].numerator
                                     * (den // row[j].denominator)
                                     for j in cols)))
        return SurfaceModel(ModelKind.CUSTOM, 0, 0, tuple(ints), den)

    # -- basis bookkeeping ----------------------------------------------

    @property
    def basis_size(self) -> int:
        return len(self.gram_ints) + self.num_points

    @property
    def hodge(self) -> HodgeData:
        if self.kind is ModelKind.CUSTOM:
            raise InputError("custom models carry no Hodge data")
        # e(S) = 2 - 4q + 2p_g + h11 holds by construction
        n = self.basis_size
        return HodgeData(q=0, p_g=0, h11=n, euler_e=n + 2)

    # -- class builders ---------------------------------------------------

    def divisor(self, coeffs: Iterable) -> DivisorClass:
        c = DivisorClass(coeffs)
        if len(c) != self.basis_size:
            raise InputError(
                f"expected {self.basis_size} coefficients, got {len(c)}"
            )
        return c

    def zero(self) -> DivisorClass:
        return DivisorClass([0] * self.basis_size)

    def basis_class(self, i: int) -> DivisorClass:
        if not 0 <= i < self.basis_size:
            raise InputError("basis index out of range")
        return DivisorClass([0] * i + [1] + [0] * (self.basis_size - i - 1))

    def exceptional(self, i: int) -> DivisorClass:
        """Ei as a class (i is 1-based, matching the basis labels)."""
        if i < 1 or i > self.num_points:
            raise InputError("exceptional index out of range")
        return self.basis_class(len(self.gram_ints) + i - 1)

    def _with_mults(self, head: list, mults: Sequence) -> DivisorClass:
        """The class with leading coefficients `head` and coefficient
        -mults[i] on E(i+1), 0 past the last multiplicity."""
        pad = self.num_points - len(mults)
        if pad < 0:
            raise InputError("more multiplicities than blown-up points")
        return self.divisor(head + [-m for m in mults] + [0] * pad)

    def plane_class(self, degree, mults: Sequence) -> DivisorClass:
        """degree*H - sum(mults[i] * E(i+1)) for a plane blow-up."""
        if self.kind is not ModelKind.P2_BLOWUP:
            raise InputError("plane_class needs a plane blow-up model")
        return self._with_mults([degree], mults)

    def ruled_class(self, a, b, mults: Sequence = ()) -> DivisorClass:
        """a*Dinf + b*Gamma - sum(mults[i] * E(i+1)) on a Hirzebruch blow-up."""
        if self.kind is not ModelKind.HIRZEBRUCH:
            raise InputError("ruled_class needs a Hirzebruch model")
        return self._with_mults([a, b], mults)

    # -- intersection theory ----------------------------------------------

    def intersect(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        head, den = self.gram_ints, self.gram_den
        h = len(head)
        n = h + self.num_points  # the basis size
        if len(a) != n or len(b) != n:
            raise InputError("dimension mismatch")
        an, bn = a.nums, b.nums
        total = -den * sum(map(mul, an[h:], bn[h:]))
        for x, (cols, entries) in zip(an, head):
            if x:
                for j, g in zip(cols, entries):
                    total += x * g * bn[j]
        return Fraction(total, a.den * b.den * den)

    def pairings(self, a: DivisorClass,
                 classes: Iterable[DivisorClass]) -> list[int | Fraction]:
        """a.b for each b in classes: an int when integral, else a Fraction.

        The covector of a (its Gram row) is built once from the non-zero
        coordinates of a, and each pairing sums over the non-zero
        entries of that covector only, so pairing one sparse class with
        many costs little on a large basis.
        """
        n = self.basis_size
        if len(a) != n:
            raise InputError("dimension mismatch")
        nums, head, den = a.nums, self.gram_ints, self.gram_den
        h = len(head)
        cov = {k: -den * nums[k] for k in compress(range(h, n), nums[h:])}
        for k in compress(range(h), nums):
            for j, g in zip(*head[k]):
                cov[j] = cov.get(j, 0) + nums[k] * g
        cols, weights = tuple(cov), tuple(cov.values())
        den *= a.den
        out = []
        for b in classes:
            if len(b) != n:
                raise InputError("dimension mismatch")
            num = sum(map(mul, weights, map(b.nums.__getitem__, cols)))
            q, r = divmod(num, den * b.den)
            out.append(Fraction(num, den * b.den) if r else q)
        return out

    def canonical_class(self) -> DivisorClass:
        if self.kind is ModelKind.P2_BLOWUP:
            head = (-3,)
        elif self.kind is ModelKind.HIRZEBRUCH:
            head = (-2, self.degree_e - 2)
        else:
            raise InputError("custom models have no canonical class")
        return DivisorClass._make(head + (1,) * self.num_points, 1)

    def arithmetic_genus(self, c: DivisorClass) -> Fraction:
        """p_a(c) = c.(c+K)/2 + 1 by adjunction."""
        k = self.canonical_class()
        return self.intersect(c, c + k) / 2 + 1

    def describe(self) -> dict:
        """JSON-ready description; inverse of the model file parser."""
        if self.kind is ModelKind.P2_BLOWUP:
            return {"kind": "p2_blowup", "points": self.num_points}
        if self.kind is ModelKind.HIRZEBRUCH:
            return {"kind": "hirzebruch", "e": self.degree_e,
                    "points": self.num_points}
        rows = [dict(zip(*row)) for row in self.gram_ints]
        return {"kind": "custom", "gram": [
            [Fraction(row.get(j, 0), self.gram_den) for j in range(len(rows))]
            for row in rows]}


def blow_up_transform(
    model: SurfaceModel,
    classes: Sequence[DivisorClass],
    mults: Sequence,
) -> tuple[SurfaceModel, list[DivisorClass]]:
    """Blow up one more point; each class picks up -mult * E_new.

    The canonical class needs no explicit handling: on the enlarged model
    canonical_class() already equals pullback(K) + E_new.
    """
    model.hodge  # raises InputError on a custom model: no surface to blow up
    if len(classes) != len(mults):
        raise InputError("one multiplicity per class required")
    bigger = model._replace(num_points=model.num_points + 1)
    out = []
    for c, m in zip(classes, mults):
        if len(c) != model.basis_size:
            raise InputError("dimension mismatch")
        m = parse_rational(m)
        out.append(DivisorClass._make(
            tuple(x * m.denominator for x in c.nums)
            + (-m.numerator * c.den,), c.den * m.denominator))
    return bigger, out
