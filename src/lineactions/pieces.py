"""Exact rational building blocks of the map trees of lineactions.maps.

Rational parsing and formatting, the rigorous interval type Enclosure, the
affine and monotone cubic Hermite pieces, the MapTree base class and the
rational leaves: AffineMap and the one-period FundamentalDomainMap with its
covering lifts ThetaMap.  lineactions.maps re-exports every public name here;
import them from there.

An enclosure is exact when its endpoints are one rational; nothing else
records exactness.  The pieces are exact rationals only: each
FundamentalDomainMap converts its pieces' coefficients once into one float
table, which both its scalar and its array float evaluations read.  A point
enclosure [q, q] is evaluated once, and both ends are read off that value.
An interval pulled back through a cubic piece shares one exact bisection
between its two ends, which splits only at the midpoint whose value falls
between them; it visits the midpoints that a bisection per end would.

The degree-j covering lift Theta_j is built here: slope a/2 through the
origin, slope a/2 affine ramp reaching j near 1, and a monotone cubic
Hermite join on [a/2, a], extended to the line by F(x + k) = F(x) + j k.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ConstructionError, PreconditionError, RepresentationError

Rat = Fraction
Num = Union[Fraction, int, float]

DEFAULT_INVERSE_WIDTH = Fraction(1, 10**30)

# ---------------------------------------------------------------------------
# rational parsing / formatting


def rat(value) -> Fraction:
    """Parse a rational from int/Fraction/'p/q' string. Floats are converted exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _decimal(n: int, places: int) -> str:
    """n / 10**places as a decimal string, trailing zeros dropped."""
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".") or "0"


def decimal_down(q: Fraction, places: int = 30) -> str:
    """Decimal string <= q, rounded toward minus infinity at `places` digits."""
    return _decimal(math.floor(q * 10 ** places), places)


def decimal_up(q: Fraction, places: int = 30) -> str:
    """Decimal string >= q, rounded toward plus infinity at `places` digits."""
    return _decimal(math.ceil(q * 10 ** places), places)


def _float_down(q) -> float:
    """Largest float <= q for a float or an exact rational q."""
    if isinstance(q, float):
        return q
    f = float(q)
    return f if Fraction(f) <= q else math.nextafter(f, -math.inf)


def _float_up(q) -> float:
    if isinstance(q, float):
        return q
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


# ---------------------------------------------------------------------------
# rigorous intervals


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] guaranteed to contain the true value."""

    lo: Num
    hi: Num

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstructionError(f"enclosure endpoints out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(x: Num) -> "Enclosure":
        return Enclosure(x, x)

    @property
    def exact(self) -> bool:
        """True for a rational point: the value is known with no error."""
        return self.lo == self.hi and not isinstance(self.lo, float)

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return (float(self.lo) + float(self.hi)) / 2.0

    @property
    def rational_ends(self) -> tuple:
        """(lo, hi) as exact rationals; float endpoints convert exactly."""
        if isinstance(self.lo, float):
            return Fraction(self.lo), Fraction(self.hi)
        return self.lo, self.hi

    def shift(self, k) -> "Enclosure":
        lo, hi = self.rational_ends
        return _image(self, lo + k, hi + k)

    def contains(self, x: Num) -> bool:
        return self.lo <= x <= self.hi

    def inside(self, lo: Num, hi: Num) -> bool:
        return lo <= self.lo and self.hi <= hi

    def to_json(self) -> dict:
        if isinstance(self.lo, float):
            return {"lo": repr(self.lo), "hi": repr(self.hi), "rounding": "outward-float"}
        return {"lo": rat_str(self.lo), "hi": rat_str(self.hi),
                "lo_decimal": decimal_down(self.lo), "hi_decimal": decimal_up(self.hi),
                "rounding": "exact" if self.exact else "outward-rational"}


def _image(enc: Enclosure, lo: Fraction, hi: Fraction) -> Enclosure:
    """[lo, hi], computed exactly from enc's endpoints, in enc's arithmetic:
    exact Fractions for rational enc, rounded outward to floats for float enc."""
    if isinstance(enc.lo, float):
        return Enclosure(_float_down(lo), _float_up(hi))
    return Enclosure(lo, hi)


# ---------------------------------------------------------------------------
# leaf pieces


class AffinePiece:
    """y = slope*(x - lo) + value_lo on [lo, hi], slope > 0, exact rationals."""

    __slots__ = ("lo", "hi", "value_lo", "slope")

    def __init__(self, lo: Rat, hi: Rat, value_lo: Rat, slope: Rat):
        if not slope > 0:
            raise RepresentationError(f"affine piece slope must be positive, got {slope}")
        if not lo < hi:
            raise RepresentationError("degenerate piece interval")
        self.lo, self.hi = lo, hi
        self.value_lo, self.slope = value_lo, slope

    @property
    def value_hi(self) -> Rat:
        return self.value_lo + self.slope * (self.hi - self.lo)

    @property
    def coeffs(self) -> tuple:
        """(c0, c1, c2, c3) of the piece as a cubic in u = x - lo."""
        return (self.value_lo, self.slope, 0, 0)

    def eval(self, x: Rat) -> Rat:
        return self.value_lo + self.slope * (x - self.lo)

    def invert(self, y: Rat) -> Rat:
        return self.lo + (y - self.value_lo) / self.slope

    def piece_spec(self) -> dict:
        return {"kind": "affine", "lo": rat_str(self.lo), "hi": rat_str(self.hi),
                "value_lo": rat_str(self.value_lo), "slope": rat_str(self.slope)}


class HermitePiece:
    """Monotone cubic Hermite on [lo, hi] with rational endpoint values/slopes.

    Monotonicity is certified at construction by the Fritsch-Carlson
    sufficient condition: both endpoint slopes in (0, 3*secant].  The inverse
    of an interval [y_lo, y_hi] is one bisection shared by both ends until
    they part (invert_enclosure).
    """

    __slots__ = ("lo", "hi", "value_lo", "value_hi", "slope_lo", "slope_hi", "coeffs")

    def __init__(self, lo: Rat, hi: Rat, value_lo: Rat, value_hi: Rat,
                 slope_lo: Rat, slope_hi: Rat):
        if not lo < hi:
            raise RepresentationError("degenerate piece interval")
        h = hi - lo
        secant = (value_hi - value_lo) / h
        if secant <= 0:
            raise RepresentationError("Hermite piece must increase")
        for s in (slope_lo, slope_hi):
            if not (0 < s <= 3 * secant):
                raise ConstructionError(
                    f"Fritsch-Carlson monotonicity condition violated: slope {s}, secant {secant}")
        self.lo, self.hi = lo, hi
        self.value_lo, self.value_hi = value_lo, value_hi
        self.slope_lo, self.slope_hi = slope_lo, slope_hi
        c2 = (3 * secant - 2 * slope_lo - slope_hi) / h
        c3 = (slope_lo + slope_hi - 2 * secant) / (h * h)
        self.coeffs = (value_lo, slope_lo, c2, c3)

    def eval(self, x: Rat) -> Rat:
        c0, c1, c2, c3 = self.coeffs
        u = x - self.lo
        return c0 + u * (c1 + u * (c2 + u * c3))

    def invert_enclosure(self, y_lo: Rat, y_hi: Rat, width: Fraction) -> tuple[Rat, Rat]:
        """(a, b) with eval(a) <= y_lo <= y_hi <= eval(b), clamped to the piece:
        a is the lower end of the bisection bracket of y_lo, b the upper end
        of that of y_hi, each of width at most width.

        Both ends share one bisection while each midpoint value sends them the
        same way.  At the first midpoint m with y_lo < F(m) <= y_hi they part,
        and each finishes alone, y_lo in [a, m] and y_hi in [m, b].  Every
        midpoint and comparison is the one that a bisection per end makes; a
        point (y_lo == y_hi) never parts."""
        brackets, ends = [(self.lo, self.hi, y_lo, y_hi)], []
        while brackets:
            a, b, y_lo, y_hi = brackets.pop()
            while b - a > width:
                m = (a + b) / 2
                v = self.eval(m)
                if v <= y_lo:
                    a = m
                elif v > y_hi:
                    b = m
                else:  # the ends part at m; the run of y_lo pops first
                    brackets += [(m, b, y_hi, y_hi), (a, m, y_lo, y_lo)]
                    break
            else:
                ends.append((a, b))
        return ends[0][0], ends[-1][1]

    def piece_spec(self) -> dict:
        return {"kind": "hermite", "lo": rat_str(self.lo), "hi": rat_str(self.hi),
                "value_lo": rat_str(self.value_lo), "value_hi": rat_str(self.value_hi),
                "slope_lo": rat_str(self.slope_lo), "slope_hi": rat_str(self.slope_hi)}


Piece = Union[AffinePiece, HermitePiece]


# ---------------------------------------------------------------------------
# map tree


class MapTree:
    """Base class. Subclasses are immutable and safe to share across threads."""

    def eval_float(self, x: float) -> float:
        raise NotImplementedError

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """F at each element of a 1-d float array; see the module docstring."""
        raise NotImplementedError

    def eval_enclosure(self, enc: Enclosure,
                       inverse_width: Fraction = DEFAULT_INVERSE_WIDTH) -> Enclosure:
        """Enclosure of F(enc) from its endpoints (F is increasing), in the
        arithmetic of enc's endpoints; see the module docstring."""
        raise NotImplementedError

    def eval_exact(self, x: Num) -> Enclosure:
        """Enclosure of F at the exact rational x: width 0 off the cubic
        inverses on rational trees, outward-rounded floats once a
        trig-polynomial leaf is on the path."""
        return self.eval_enclosure(Enclosure.point(rat(x)))

    def shift_image(self, q: Fraction):
        """The exact q' with F(x + q) = F(x) + q' for every x that the tree's
        structure proves for the rational shift q, or None: slope*q on an
        affine map; degree*q for integer q on a leaf of integer degree and
        q/degree on its inverse, where that is an integer; the inner map's
        rule under a conjugation; the parts' rules folded right to left in
        a composition; None by default."""
        return None

    def __call__(self, x: float) -> float:
        return self.eval_float(x)

    def to_spec(self) -> dict:
        raise NotImplementedError


class AffineMap(MapTree):
    """x -> slope*x + offset on all of R, slope > 0."""

    def __init__(self, slope, offset):
        self.slope, self.offset = rat(slope), rat(offset)
        if not self.slope > 0:
            raise RepresentationError("affine map must have positive slope")
        self._f = (float(self.slope), float(self.offset))

    def eval_float(self, x):
        s, o = self._f
        return s * x + o

    def eval_array(self, xs):
        s, o = self._f
        return s * xs + o

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo, hi = enc.rational_ends
        return _image(enc, self.slope * lo + self.offset, self.slope * hi + self.offset)

    def shift_image(self, q):
        return self.slope * q

    def to_spec(self):
        return {"kind": "affine", "slope": rat_str(self.slope), "offset": rat_str(self.offset)}

    def __repr__(self):
        return f"AffineMap({self.slope}x + {self.offset})"


class FundamentalDomainMap(MapTree):
    """Piecewise map on one period [x_lo, x_lo + 1), degree-j equivariant extension.

    Pieces tile [x_lo, x_lo + 1) exactly; adjacent pieces agree at shared
    endpoints and the wraparound value matches F(x_lo) + degree.
    """

    def __init__(self, pieces: Sequence[Piece], degree: int, label: str = ""):
        if degree < 1:
            raise RepresentationError(f"degree must be a positive integer, got {degree}")
        pieces = list(pieces)
        if not pieces:
            raise RepresentationError("no pieces")
        x_lo = pieces[0].lo
        if pieces[-1].hi - x_lo != 1:
            raise RepresentationError("pieces must tile exactly one period")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise RepresentationError("pieces must tile contiguously")
            if left.eval(left.hi) != right.eval(right.lo):
                raise RepresentationError(f"value discontinuity at {left.hi}")
        last = pieces[-1]
        if last.eval(last.hi) != pieces[0].eval(x_lo) + degree:
            raise RepresentationError("wraparound violates the equivariance rule")
        self.pieces = tuple(pieces)
        self.degree = degree
        self.label = label
        self.x_lo = x_lo
        self.value_lo = pieces[0].eval(x_lo)
        self._breaks_exact = [p.lo for p in pieces]
        self._value_breaks = [p.eval(p.lo) for p in pieces]
        # one float table of the pieces, as lists for the scalar evaluations
        # and as arrays for the array ones: rows (lo, c0, c1, c2, c3) of each
        # piece as a cubic in u = x - lo (c2 = c3 = 0 on affine pieces), the
        # piece ends, the value breaks and which pieces bisect to invert
        self._rows = [tuple(float(c) for c in (p.lo, *p.coeffs)) for p in pieces]
        self._breaks = [row[0] for row in self._rows]
        self._ends = [float(p.hi) for p in pieces]
        self._value_breaks_f = [float(v) for v in self._value_breaks]
        self._hermite = [isinstance(p, HermitePiece) for p in pieces]
        self._table = np.array(list(zip(*self._rows)))
        self._ends_arr, self._value_breaks_arr, self._hermite_arr = map(
            np.array, (self._ends, self._value_breaks_f, self._hermite))

    def _index(self, breaks: list, v) -> int:
        """The piece whose entry in breaks is the last one <= v, clamped."""
        return max(0, min(bisect.bisect_right(breaks, v) - 1, len(self.pieces) - 1))

    def eval_exact_point(self, x: Rat) -> Rat:
        k = math.floor(x - self.x_lo)
        xr = x - k
        return self.pieces[self._index(self._breaks_exact, xr)].eval(xr) + self.degree * k

    def eval_float(self, x):
        k = math.floor(x - self._breaks[0])
        xr = x - k
        i = bisect.bisect_right(self._breaks, xr) - 1
        lo, c0, c1, c2, c3 = self._rows[max(0, min(i, len(self._rows) - 1))]
        u = xr - lo
        return c0 + u * (c1 + u * (c2 + u * c3)) + self.degree * k

    def _cubic_at(self, i: np.ndarray, xr: np.ndarray) -> np.ndarray:
        """Piece i[j] at xr[j], by eval_float's Horner scheme."""
        lo, c0, c1, c2, c3 = self._table[:, i]
        u = xr - lo
        return c0 + u * (c1 + u * (c2 + u * c3))

    def eval_array(self, xs):
        k = np.floor(xs - self._breaks[0])
        xr = xs - k
        i = np.searchsorted(self._table[0], xr, side="right") - 1
        i = np.clip(i, 0, len(self.pieces) - 1)
        return self._cubic_at(i, xr) + self.degree * k

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo, hi = enc.rational_ends
        value_lo = self.eval_exact_point(lo)
        return _image(enc, value_lo, value_lo if hi == lo else self.eval_exact_point(hi))

    def shift_image(self, q):
        return self.degree * q if q.denominator == 1 else None

    def _locate(self, y: Rat) -> tuple[int, Rat, Piece]:
        """(k, yr, piece) with y = yr + degree k and yr among the piece's values."""
        k = math.floor((y - self.value_lo) / self.degree)
        yr = y - self.degree * k
        return k, yr, self.pieces[self._index(self._value_breaks, yr)]

    def invert_exact(self, y_lo: Rat, y_hi: Rat, width: Fraction) -> tuple[Rat, Rat]:
        """(lo, hi) enclosing F^{-1}([y_lo, y_hi]), y_lo <= y_hi.  An end on an
        affine piece inverts exactly; on a cubic piece it takes its side of
        the bisection bracket, of width at most width (> 0).  Two ends on one
        cubic piece in one period share one bisection (see
        HermitePiece.invert_enclosure); ends on different pieces or periods
        invert one by one."""
        if not width > 0:
            raise PreconditionError(f"inverse width must be positive, got {width}")
        (k, yr_lo, piece), (k_hi, yr_hi, piece_hi) = self._locate(y_lo), self._locate(y_hi)
        if (k, piece) != (k_hi, piece_hi):
            return self.invert_exact(y_lo, y_lo, width)[0], self.invert_exact(y_hi, y_hi, width)[1]
        if isinstance(piece, AffinePiece):
            return piece.invert(yr_lo) + k, piece.invert(yr_hi) + k
        a, b = piece.invert_enclosure(yr_lo, yr_hi, width)
        return a + k, b + k

    def invert_float(self, y: float) -> float:
        """The float inverse: the affine formula on affine pieces, a 60-step
        bisection of the Horner cubic on cubic ones."""
        k = math.floor((y - self._value_breaks_f[0]) / self.degree)
        yr = y - self.degree * k
        i = self._index(self._value_breaks_f, yr)
        lo, c0, c1, c2, c3 = self._rows[i]
        if not self._hermite[i]:
            return lo + (yr - c0) / c1 + k
        a, b = lo, self._ends[i]
        for _ in range(60):
            m = 0.5 * (a + b)
            u = m - lo
            if c0 + u * (c1 + u * (c2 + u * c3)) <= yr:
                a = m
            else:
                b = m
        return 0.5 * (a + b) + k

    def invert_array(self, ys: np.ndarray) -> np.ndarray:
        """invert_float at each element: the affine formula on affine pieces,
        invert_float's 60-step bisection, run on arrays, on cubic ones."""
        k = np.floor((ys - self._value_breaks_f[0]) / self.degree)
        yr = ys - self.degree * k
        i = np.searchsorted(self._value_breaks_arr, yr, side="right") - 1
        i = np.clip(i, 0, len(self.pieces) - 1)
        lo, c0, c1 = self._table[:3, i]
        x = lo + (yr - c0) / c1
        cubic = np.flatnonzero(self._hermite_arr[i])
        if cubic.size:
            i, yr = i[cubic], yr[cubic]
            a, b = lo[cubic], self._ends_arr[i]
            for _ in range(60):
                m = 0.5 * (a + b)
                below = self._cubic_at(i, m) <= yr
                a, b = np.where(below, m, a), np.where(below, b, m)
            x[cubic] = 0.5 * (a + b)
        return x + k

    def to_spec(self):
        return {"kind": "fundamental", "degree": self.degree, "label": self.label,
                "pieces": [p.piece_spec() for p in self.pieces]}

    def __repr__(self):
        return f"FundamentalDomainMap(degree={self.degree}, label={self.label!r})"


class ThetaMap(FundamentalDomainMap):
    """The degree-j covering lift: (a/2)x near 0, ramp j + (a/2)(x-1) past a."""

    def __init__(self, j: int, a: Rat = Fraction(1, 10)):
        a = rat(a)
        if not (0 < a < Fraction(1, 2)):
            raise PreconditionError(f"need 0 < a < 1/2, got {a}")
        if j < 1:
            raise PreconditionError(f"degree must be >= 1, got {j}")
        half = a / 2
        slope = a / 2
        # linear through 0 on [-a/2, a/2], Hermite join on [a/2, a],
        # ramp on [a, 1 - a/2] (the ramp formula continues to 1 + a/2; one
        # period suffices, the extension rule supplies the rest).
        p1 = AffinePiece(-half, half, -half * slope, slope)
        join_lo_val = slope * half
        join_hi_val = j + slope * (a - 1)
        p2 = HermitePiece(half, a, join_lo_val, join_hi_val, slope, slope)
        p3 = AffinePiece(a, 1 - half, join_hi_val, slope)
        super().__init__([p1, p2, p3], degree=j, label=f"theta_{j}")
        self.j = j
        self.a = a

    def to_spec(self):
        return {"kind": "theta", "j": self.j, "a": rat_str(self.a)}

    def __repr__(self):
        return f"ThetaMap(j={self.j}, a={self.a})"
