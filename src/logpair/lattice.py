"""Rational surface models and their intersection lattices.

Two concrete models are supported, both presented by an explicit basis
with a fixed Gram matrix:

* ``plane_blowup(n)``: the blow-up of the projective plane at n points,
  basis (H, E1, ..., En) with H^2 = 1, Ei^2 = -1, mixed products 0.
* ``hirzebruch(e, n)``: the blow-up of the degree-e Hirzebruch surface
  at n points, basis (Dinf, Gamma, E1, ..., En) with Dinf^2 = e,
  Dinf.Gamma = 1, Gamma^2 = 0, Ei^2 = -1.

A third, abstract kind carries nothing but a user-supplied Gram matrix;
it exists for dual-graph-only workflows where no global model is needed.
Classes are exact rational coefficient vectors, stored as integer
numerators over one common denominator.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InputError


class ModelKind(Enum):
    P2_BLOWUP = "p2_blowup"
    HIRZEBRUCH = "hirzebruch"
    CUSTOM = "custom"


RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def parse_rational(v) -> Fraction:
    """An exact rational from an int, a Fraction or a "p" / "p/q" string.

    Floats, booleans and every other spelling (such as "1.5") are
    rejected with InputError, so no inexact value enters a class.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise InputError(f"expected a rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not RATIONAL_RE.fullmatch(v):
            raise InputError(f"malformed rational {v!r}; use p or p/q")
        return Fraction(v)
    if isinstance(v, float):
        raise InputError(
            f"floating point value {v!r} rejected; use p/q strings")
    raise InputError(f"expected a rational, got {type(v).__name__}")


class DivisorClass:
    """An immutable class in a fixed model basis.

    Stored as integer numerators ``nums`` over one denominator ``den``,
    kept canonical (``den > 0``, ``gcd(den, *nums) == 1``) so equal
    classes have equal fields.  ``Fraction`` coordinates are built only
    when read through ``coeffs``, indexing or iteration.
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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, den) for n in self.nums)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.coeffs[i]
        return Fraction(self.nums[i], self.den)

    def __iter__(self):
        return iter(self.coeffs)

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

    def __neg__(self):
        return DivisorClass._make(tuple(-n for n in self.nums), self.den)

    def __mul__(self, scalar):
        s = scalar if type(scalar) is int else parse_rational(scalar)
        return DivisorClass._make(
            tuple(n * s.numerator for n in self.nums), self.den * s.denominator)

    __rmul__ = __mul__

    def __repr__(self):
        return "DivisorClass(%s)" % (", ".join(str(c) for c in self.coeffs))

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

    def check(self) -> None:
        # e(S) = 2 - 4q + 2p_g + h11 for the surfaces modeled here
        if self.euler_e != 2 - 4 * self.q + 2 * self.p_g + self.h11:
            raise InputError("inconsistent Hodge data")


class SurfaceModel(NamedTuple):
    kind: ModelKind
    degree_e: int = 0
    num_points: int = 0
    gram_rows: tuple = ()  # custom kind only
    # custom kind only: per row of gram_rows, its non-zero columns and
    # their entries times gram_den, the common denominator, as integers
    gram_ints: tuple = ()
    gram_den: int = 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def plane_blowup(n: int) -> "SurfaceModel":
        if n < 0:
            raise InputError("number of blown-up points must be >= 0")
        return SurfaceModel(ModelKind.P2_BLOWUP, 0, n)

    @staticmethod
    def hirzebruch(e: int, n: int) -> "SurfaceModel":
        if e < 0:
            raise InputError("Hirzebruch degree must be >= 0")
        if n < 0:
            raise InputError("number of blown-up points must be >= 0")
        return SurfaceModel(ModelKind.HIRZEBRUCH, e, n)

    @staticmethod
    def custom(gram: Sequence[Sequence]) -> "SurfaceModel":
        rows = tuple(tuple(parse_rational(x) for x in row) for row in gram)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InputError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise InputError("Gram matrix must be symmetric")
        den = lcm(*(x.denominator for row in rows for x in row))
        ints = []
        for row in rows:
            cols = tuple(j for j, x in enumerate(row) if x)
            ints.append((cols, tuple(row[j].numerator
                                     * (den // row[j].denominator)
                                     for j in cols)))
        return SurfaceModel(ModelKind.CUSTOM, 0, 0, rows, tuple(ints), den)

    # -- basis bookkeeping ----------------------------------------------

    @property
    def basis_size(self) -> int:
        if self.kind is ModelKind.P2_BLOWUP:
            return 1 + self.num_points
        if self.kind is ModelKind.HIRZEBRUCH:
            return 2 + self.num_points
        return len(self.gram_rows)

    @property
    def hodge(self) -> HodgeData:
        n = self.num_points
        if self.kind is ModelKind.P2_BLOWUP:
            return HodgeData(q=0, p_g=0, h11=n + 1, euler_e=n + 3)
        if self.kind is ModelKind.HIRZEBRUCH:
            return HodgeData(q=0, p_g=0, h11=n + 2, euler_e=n + 4)
        raise InputError("custom models carry no Hodge data")

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
        return DivisorClass(
            [1 if j == i else 0 for j in range(self.basis_size)]
        )

    def exceptional(self, i: int) -> DivisorClass:
        """Ei as a class (i is 1-based, matching the basis labels)."""
        if i < 1 or i > self.num_points:
            raise InputError("exceptional index out of range")
        offset = 1 if self.kind is ModelKind.P2_BLOWUP else 2
        return self.basis_class(offset + i - 1)

    def plane_class(self, degree, mults: Sequence) -> DivisorClass:
        """degree*H - sum(mults[i] * E(i+1)) for a plane blow-up."""
        if self.kind is not ModelKind.P2_BLOWUP:
            raise InputError("plane_class needs a plane blow-up model")
        if len(mults) > self.num_points:
            raise InputError("more multiplicities than blown-up points")
        ms = list(mults) + [0] * (self.num_points - len(mults))
        return self.divisor([degree] + [-m for m in ms])

    def ruled_class(self, a, b, mults: Sequence = ()) -> DivisorClass:
        """a*Dinf + b*Gamma - sum(mults[i] * E(i+1)) on a Hirzebruch blow-up."""
        if self.kind is not ModelKind.HIRZEBRUCH:
            raise InputError("ruled_class needs a Hirzebruch model")
        if len(mults) > self.num_points:
            raise InputError("more multiplicities than blown-up points")
        ms = list(mults) + [0] * (self.num_points - len(mults))
        return self.divisor([a, b] + [-m for m in ms])

    # -- intersection theory ----------------------------------------------

    def intersect(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        n = self.basis_size
        if len(a) != n or len(b) != n:
            raise InputError("dimension mismatch")
        an, bn = a.nums, b.nums
        if self.kind is ModelKind.P2_BLOWUP:
            total = an[0] * bn[0] - sum(map(mul, an[1:], bn[1:]))
        elif self.kind is ModelKind.HIRZEBRUCH:
            total = (self.degree_e * an[0] * bn[0] + an[0] * bn[1]
                     + an[1] * bn[0] - sum(map(mul, an[2:], bn[2:])))
        else:
            total = sum(x * sum(map(mul, entries, map(bn.__getitem__, cols)))
                        for x, (cols, entries) in zip(an, self.gram_ints)
                        if x)
            return Fraction(total, a.den * b.den * self.gram_den)
        return Fraction(total, a.den * b.den)

    def pairing_with(self, a: DivisorClass) -> Callable[[DivisorClass], int]:
        """The function b -> the integer numerator of a.b over
        a.den * b.den * gram_den.

        The covector of a (its Gram row) is built once from the non-zero
        coordinates of a, and each pairing sums over the non-zero
        entries of that covector only, so pairing one sparse class with
        many costs little on a large basis.
        """
        n = self.basis_size
        if len(a) != n:
            raise InputError("dimension mismatch")
        nums = a.nums
        if self.kind is ModelKind.CUSTOM:
            cov: dict[int, int] = {}
            for k in compress(range(n), nums):
                cols, entries = self.gram_ints[k]
                for j, g in zip(cols, entries):
                    cov[j] = cov.get(j, 0) + nums[k] * g
        else:
            head = 1 if self.kind is ModelKind.P2_BLOWUP else 2
            cov = {k: -nums[k] for k in compress(range(head, n), nums[head:])}
            if head == 1:
                cov[0] = nums[0]
            else:
                cov[0] = self.degree_e * nums[0] + nums[1]
                cov[1] = nums[0]
        cols, weights = tuple(cov), tuple(cov.values())

        def pair(b: DivisorClass) -> int:
            if len(b) != n:
                raise InputError("dimension mismatch")
            return sum(map(mul, weights, map(b.nums.__getitem__, cols)))
        return pair

    def self_intersection(self, a: DivisorClass) -> Fraction:
        return self.intersect(a, a)

    def canonical_class(self) -> DivisorClass:
        if self.kind is ModelKind.P2_BLOWUP:
            return self.divisor([-3] + [1] * self.num_points)
        if self.kind is ModelKind.HIRZEBRUCH:
            return self.divisor([-2, self.degree_e - 2] + [1] * self.num_points)
        raise InputError("custom models have no canonical class")

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
        return {"kind": "custom",
                "gram": [list(row) for row in self.gram_rows]}


def blow_up_transform(
    model: SurfaceModel,
    classes: Sequence[DivisorClass],
    mults: Sequence,
) -> tuple[SurfaceModel, list[DivisorClass]]:
    """Blow up one more point; each class picks up -mult * E_new.

    The canonical class needs no explicit handling: on the enlarged model
    canonical_class() already equals pullback(K) + E_new.
    """
    if model.kind is ModelKind.CUSTOM:
        raise InputError("custom models cannot be blown up")
    if len(classes) != len(mults):
        raise InputError("one multiplicity per class required")
    if model.kind is ModelKind.P2_BLOWUP:
        bigger = SurfaceModel.plane_blowup(model.num_points + 1)
    else:
        bigger = SurfaceModel.hirzebruch(model.degree_e, model.num_points + 1)
    out = []
    for c, m in zip(classes, mults):
        if len(c) != model.basis_size:
            raise InputError("dimension mismatch")
        m = parse_rational(m)
        out.append(DivisorClass._make(
            tuple(x * m.denominator for x in c.nums)
            + (-m.numerator * c.den,), c.den * m.denominator))
    return bigger, out
