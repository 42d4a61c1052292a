"""Exact algebra of strictly monotone piecewise maps of the real line.

A map tree is built from leaves (affine maps, one-period fundamental-domain
maps of integer degree, trigonometric-polynomial lifts) and nodes
(composition, inverse, conjugation by a translation).  Trees have a fast
plain float evaluation for estimators and a rigorous enclosure evaluation,
whose arithmetic follows the type of the enclosure's endpoints:

* Fraction (or int) endpoints: rational leaves evaluate exactly; inverting a
  cubic join piece yields a rational enclosure of prescribed width by
  monotone bisection.
* float endpoints: rational leaves compute exactly from the endpoints and
  round the result outward to floats.

Trig-polynomial leaves have float coefficients: they round any input
outward to floats and return padded float enclosures, so a path through one
continues in outward-rounded floats.

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

from .errors import ConstructionError, PreconditionError, RepresentationError

Rat = Fraction
Num = Union[Fraction, int, float]

DEFAULT_INVERSE_WIDTH = Fraction(1, 10**30)
FLOAT_INVERSE_WIDTH = 1e-14

# ---------------------------------------------------------------------------
# rational parsing / formatting


def rat(value) -> Fraction:
    """Parse a rational from int/Fraction/'p/q' string. Floats are converted exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def decimal_down(q: Fraction, places: int = 30) -> str:
    """Decimal string <= q, rounded toward minus infinity at `places` digits."""
    scale = 10 ** places
    n = math.floor(q * scale)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".") or "0"


def decimal_up(q: Fraction, places: int = 30) -> str:
    """Decimal string >= q, rounded toward plus infinity at `places` digits."""
    scale = 10 ** places
    n = math.ceil(q * scale)
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".") or "0"


def _next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _float_down(q) -> float:
    """Largest float <= q for a float or an exact rational q."""
    if isinstance(q, float):
        return q
    f = float(q)
    return f if Fraction(f) <= q else _next_down(f)


def _float_up(q) -> float:
    if isinstance(q, float):
        return q
    f = float(q)
    return f if Fraction(f) >= q else _next_up(f)


# ---------------------------------------------------------------------------
# rigorous intervals


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] guaranteed to contain the true value.

    ``exact`` is True when lo == hi and no approximation occurred along the
    evaluation path.
    """

    lo: Num
    hi: Num
    exact: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstructionError(f"enclosure endpoints out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(x: Num) -> "Enclosure":
        return Enclosure(x, x, exact=not isinstance(x, float))

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
        return _image(self, lo + k, hi + k, self.exact)

    def contains(self, x: Num) -> bool:
        return self.lo <= x <= self.hi

    def inside(self, lo: Num, hi: Num) -> bool:
        return lo <= self.lo and self.hi <= hi

    def to_json(self) -> dict:
        if isinstance(self.lo, Fraction):
            return {"lo": rat_str(self.lo), "hi": rat_str(self.hi),
                    "lo_decimal": decimal_down(self.lo), "hi_decimal": decimal_up(self.hi),
                    "rounding": "exact" if self.exact else "outward-rational"}
        return {"lo": repr(self.lo), "hi": repr(self.hi), "rounding": "outward-float"}


def _image(enc: Enclosure, lo: Fraction, hi: Fraction, exact: bool) -> Enclosure:
    """[lo, hi], computed exactly from enc's endpoints, in enc's arithmetic:
    exact Fractions for rational enc, rounded outward to floats for float enc."""
    if isinstance(enc.lo, float):
        return Enclosure(_float_down(lo), _float_up(hi), False)
    return Enclosure(lo, hi, exact)


# ---------------------------------------------------------------------------
# leaf pieces


class AffinePiece:
    """y = slope*(x - lo) + value_lo on [lo, hi], slope > 0, exact rationals."""

    __slots__ = ("lo", "hi", "value_lo", "slope", "_f")

    def __init__(self, lo: Rat, hi: Rat, value_lo: Rat, slope: Rat):
        if not slope > 0:
            raise RepresentationError(f"affine piece slope must be positive, got {slope}")
        if not lo < hi:
            raise RepresentationError("degenerate piece interval")
        self.lo, self.hi = lo, hi
        self.value_lo, self.slope = value_lo, slope
        self._f = (float(lo), float(value_lo), float(slope))

    @property
    def value_hi(self) -> Rat:
        return self.value_lo + self.slope * (self.hi - self.lo)

    def eval(self, x: Rat) -> Rat:
        return self.value_lo + self.slope * (x - self.lo)

    def eval_float(self, x: float) -> float:
        lo, v, s = self._f
        return v + s * (x - lo)

    def invert(self, y: Rat) -> Rat:
        return self.lo + (y - self.value_lo) / self.slope

    def invert_float(self, y: float) -> float:
        lo, v, s = self._f
        return lo + (y - v) / s

    def kind(self) -> str:
        return "affine"

    def piece_spec(self) -> dict:
        return {"kind": "affine", "lo": rat_str(self.lo), "hi": rat_str(self.hi),
                "value_lo": rat_str(self.value_lo), "slope": rat_str(self.slope)}


class HermitePiece:
    """Monotone cubic Hermite on [lo, hi] with rational endpoint values/slopes.

    Monotonicity is certified at construction by the Fritsch-Carlson
    sufficient condition: both endpoint slopes in (0, 3*secant].
    """

    __slots__ = ("lo", "hi", "value_lo", "value_hi", "slope_lo", "slope_hi", "coeffs", "_f")

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
        self._f = (float(lo), tuple(float(c) for c in self.coeffs))

    def eval(self, x: Rat) -> Rat:
        c0, c1, c2, c3 = self.coeffs
        u = x - self.lo
        return c0 + u * (c1 + u * (c2 + u * c3))

    def eval_float(self, x: float) -> float:
        lo, (c0, c1, c2, c3) = self._f
        u = x - lo
        return c0 + u * (c1 + u * (c2 + u * c3))

    def invert_enclosure(self, y: Rat, width: Fraction) -> tuple[Rat, Rat]:
        """[a, b] with eval(a) <= y <= eval(b) and b - a <= width, by bisection."""
        a, b = self.lo, self.hi
        while b - a > width:
            m = (a + b) / 2
            if self.eval(m) <= y:
                a = m
            else:
                b = m
        return a, b

    def invert_float(self, y: float) -> float:
        a, b = float(self.lo), float(self.hi)
        for _ in range(60):
            m = 0.5 * (a + b)
            if self.eval_float(m) <= y:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    def kind(self) -> str:
        return "hermite"

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

    def eval_float(self, x):
        return float(self.slope) * x + float(self.offset)

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo, hi = enc.rational_ends
        return _image(enc, self.slope * lo + self.offset, self.slope * hi + self.offset,
                      enc.exact)

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
        self._breaks = [float(p.lo) for p in pieces]
        self._breaks_exact = [p.lo for p in pieces]
        self._value_breaks = [p.eval(p.lo) for p in pieces]
        self._value_breaks_f = [float(v) for v in self._value_breaks]
        self._x_lo_f = float(x_lo)
        self._value_lo_f = float(self.value_lo)

    def _piece_at(self, xr: Rat) -> Piece:
        i = bisect.bisect_right(self._breaks_exact, xr) - 1
        return self.pieces[max(0, min(i, len(self.pieces) - 1))]

    def eval_exact_point(self, x: Rat) -> Rat:
        k = math.floor(x - self.x_lo)
        xr = x - k
        if xr == self.x_lo + 1:  # guard against Fraction floor edge
            k += 1
            xr -= 1
        return self._piece_at(xr).eval(xr) + self.degree * k

    def eval_float(self, x):
        k = math.floor(x - self._x_lo_f)
        xr = x - k
        i = bisect.bisect_right(self._breaks, xr) - 1
        i = max(0, min(i, len(self.pieces) - 1))
        return self.pieces[i].eval_float(xr) + self.degree * k

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo, hi = enc.rational_ends
        return _image(enc, self.eval_exact_point(lo), self.eval_exact_point(hi), enc.exact)

    def invert_exact(self, y: Rat, width: Fraction) -> tuple[Rat, Rat, bool]:
        """(lo, hi, exact) enclosing F^{-1}(y); exact on affine pieces."""
        k = math.floor((y - self.value_lo) / self.degree)
        yr = y - self.degree * k
        if yr == self.value_lo + self.degree:
            k += 1
            yr -= self.degree
        i = bisect.bisect_right(self._value_breaks, yr) - 1
        i = max(0, min(i, len(self.pieces) - 1))
        piece = self.pieces[i]
        if isinstance(piece, AffinePiece):
            x = piece.invert(yr)
            return x + k, x + k, True
        a, b = piece.invert_enclosure(yr, width)
        return a + k, b + k, False

    def invert_float(self, y: float) -> float:
        k = math.floor((y - self._value_lo_f) / self.degree)
        yr = y - self.degree * k
        i = bisect.bisect_right(self._value_breaks_f, yr) - 1
        i = max(0, min(i, len(self.pieces) - 1))
        return self.pieces[i].invert_float(yr) + k

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


class TrigPolyLift(MapTree):
    """x -> degree*x + a0 + sum_k (cos_k cos(2 pi k x) + sin_k sin(2 pi k x)).

    Float-only leaf (coefficients are floats); used by the Fourier smoothing
    path and for sine perturbations of the identity.  Monotonicity is
    certified by a dense derivative minimum (spectral evaluation for large
    coefficient lists) minus a second-derivative Lipschitz guard from the
    coefficient sums.
    """

    def __init__(self, degree: int, a0: float = 0.0,
                 cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()):
        if degree < 1:
            raise RepresentationError("degree must be >= 1")
        self.degree = degree
        self.a0 = float(a0)
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)
        n = max(len(self.cos_coeffs), len(self.sin_coeffs))
        self.cos_coeffs += (0.0,) * (n - len(self.cos_coeffs))
        self.sin_coeffs += (0.0,) * (n - len(self.sin_coeffs))
        self._np = None
        if n > 8:
            import numpy as np
            ks = np.arange(1, n + 1, dtype=float)
            self._np = (2 * math.pi * ks, np.array(self.cos_coeffs),
                        np.array(self.sin_coeffs))
        self._deriv_min = None
        wit = self.monotonicity_margin()
        if wit <= 0:
            raise ConstructionError(
                f"cannot certify monotonicity: derivative lower bound {wit:.3g} <= 0")

    def monotonicity_margin(self) -> float:
        """Certified lower bound for F' over a period (cached).

        Dense derivative samples (spectral evaluation on a grid with at least
        eight points per harmonic) minus the Lipschitz guard
        max|F''| * step / 2 with max|F''| bounded by coefficient sums.
        """
        if self._deriv_min is not None:
            return self._deriv_min
        import numpy as np
        two_pi = 2 * math.pi
        n = len(self.cos_coeffs)
        m2 = sum((two_pi * k) ** 2 * (abs(a) + abs(b))
                 for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1))
        margin = -math.inf
        grid = 4096
        while grid < 8 * n:
            grid *= 2
        while True:
            coeffs = np.zeros(grid // 2 + 1, dtype=complex)
            for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
                coeffs[k] = (a - 1j * b) / 2 * (2j * math.pi * k)
            deriv = np.fft.irfft(coeffs * grid, grid).real + self.degree
            margin = float(deriv.min()) - m2 / grid / 2
            # refine while the Lipschitz guard, not the sampled minimum,
            # is what blocks a positive certificate
            if margin > 0 or float(deriv.min()) <= 0 or grid >= 2 ** 21:
                break
            grid *= 4
        self._deriv_min = margin
        return self._deriv_min

    def _periodic(self, x: float) -> float:
        if self._np is not None:
            wk, ac, bs = self._np
            phases = wk * x
            import numpy as np
            return self.a0 + float(np.dot(ac, np.cos(phases)) + np.dot(bs, np.sin(phases)))
        two_pi = 2 * math.pi
        s = self.a0
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            s += a * math.cos(two_pi * k * x) + b * math.sin(two_pi * k * x)
        return s

    def eval_float(self, x):
        return self.degree * x + self._periodic(x)

    # evaluation error guard for the padded enclosure; generous for <= 256 terms
    _PAD = 1e-12

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo = self.eval_float(_float_down(enc.lo)) - self._PAD
        hi = self.eval_float(_float_up(enc.hi)) + self._PAD
        return Enclosure(lo, hi, False)

    def _deriv(self, x: float) -> float:
        if self._np is not None:
            import numpy as np
            wk, ac, bs = self._np
            phases = wk * x
            return self.degree + float(np.dot(bs * wk, np.cos(phases))
                                       - np.dot(ac * wk, np.sin(phases)))
        two_pi = 2 * math.pi
        d = float(self.degree)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            d += two_pi * k * (b * math.cos(two_pi * k * x) - a * math.sin(two_pi * k * x))
        return d

    def invert_float(self, y: float) -> float:
        # equivariance gives a one-period bracket: F(k) <= y < F(k+1)
        f0 = self.eval_float(0.0)
        k = math.floor((y - f0) / self.degree)
        a, b = float(k), float(k) + 1.0
        while self.eval_float(a) > y:
            a, b = a - 1.0, a
        while self.eval_float(b) < y:
            a, b = b, b + 1.0
        x = a + (b - a) * 0.5
        for _ in range(80):
            fx = self.eval_float(x) - y
            if abs(fx) <= 1e-14 * max(1.0, abs(y)):
                return x
            if fx < 0:
                a = x
            else:
                b = x
            d = self._deriv(x)
            xn = x - fx / d if d > 0 else 0.5 * (a + b)
            if not (a < xn < b):
                xn = 0.5 * (a + b)
            x = xn
            if b - a <= FLOAT_INVERSE_WIDTH * max(1.0, abs(x)):
                break
        return x

    def to_spec(self):
        return {"kind": "trigpoly", "degree": self.degree, "a0": self.a0,
                "cos": list(self.cos_coeffs), "sin": list(self.sin_coeffs)}


def sine_lift(amplitude) -> TrigPolyLift:
    """x + amplitude*sin(2 pi x); monotone for |amplitude| < 1/(2 pi)."""
    return TrigPolyLift(1, 0.0, (), (float(rat(amplitude)),))


class Compose(MapTree):
    """parts[0] o parts[1] o ... (rightmost applied first)."""

    def __init__(self, parts: Sequence[MapTree]):
        flat = []
        for p in parts:
            if isinstance(p, Compose):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if not flat:
            raise RepresentationError("empty composition")
        self.parts = tuple(flat)

    def eval_float(self, x):
        for p in reversed(self.parts):
            x = p.eval_float(x)
        return x

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        for p in reversed(self.parts):
            enc = p.eval_enclosure(enc, inverse_width)
        return enc

    def to_spec(self):
        return {"kind": "compose", "of": [p.to_spec() for p in self.parts]}


class Inverse(MapTree):
    """Inverse of a leaf map (compositions and conjugations are pushed down by invert())."""

    def __init__(self, inner: MapTree):
        if isinstance(inner, (Compose, Inverse, TranslateConjugate)):
            raise ConstructionError("build inverses with invert(), which normalizes the tree")
        self.inner = inner

    def eval_float(self, x):
        inner = self.inner
        if isinstance(inner, FundamentalDomainMap):
            return inner.invert_float(x)
        if isinstance(inner, TrigPolyLift):
            return inner.invert_float(x)
        raise ConstructionError(f"cannot invert leaf {inner!r}")

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        inner = self.inner
        if isinstance(inner, FundamentalDomainMap):
            if isinstance(enc.lo, float):
                inverse_width = Fraction(1, 2**52)
            lo, hi = enc.rational_ends
            lo, _, ex1 = inner.invert_exact(lo, inverse_width)
            _, hi, ex2 = inner.invert_exact(hi, inverse_width)
            return _image(enc, lo, hi, enc.exact and ex1 and ex2 and lo == hi)
        if isinstance(inner, TrigPolyLift):
            pad = 4 * TrigPolyLift._PAD
            return Enclosure(inner.invert_float(_float_down(enc.lo)) - pad,
                             inner.invert_float(_float_up(enc.hi)) + pad, False)
        raise ConstructionError(f"cannot invert leaf {inner!r}")

    def to_spec(self):
        return {"kind": "inverse", "of": self.inner.to_spec()}


class TranslateConjugate(MapTree):
    """x -> f(x - shift) + shift."""

    def __init__(self, shift, inner: MapTree):
        self.shift = rat(shift)
        self.inner = inner

    def eval_float(self, x):
        s = float(self.shift)
        return self.inner.eval_float(x - s) + s

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        s = self.shift
        out = self.inner.eval_enclosure(enc.shift(-s), inverse_width)
        return out.shift(s)

    def to_spec(self):
        return {"kind": "translate_conjugate", "shift": rat_str(self.shift),
                "of": self.inner.to_spec()}


# ---------------------------------------------------------------------------
# constructors


def identity() -> AffineMap:
    return AffineMap(1, 0)


def build_theta(j: int, a=Fraction(1, 10)) -> ThetaMap:
    """Degree-j covering lift with parameter a (default 1/10)."""
    return ThetaMap(j, rat(a))


def compose(*maps: MapTree) -> MapTree:
    """compose(f, g)(x) = f(g(x)); accepts any number of factors."""
    if len(maps) == 1:
        return maps[0]
    return Compose(list(maps))


def invert(f: MapTree) -> MapTree:
    """Inverse map; compositions and conjugations are rewritten so inverses sit on leaves."""
    if isinstance(f, AffineMap):
        return AffineMap(1 / f.slope, -f.offset / f.slope)
    if isinstance(f, Compose):
        return Compose([invert(p) for p in reversed(f.parts)])
    if isinstance(f, Inverse):
        return f.inner
    if isinstance(f, TranslateConjugate):
        return TranslateConjugate(f.shift, invert(f.inner))
    return Inverse(f)


def iterate(f: MapTree, n: int) -> MapTree:
    if n == 0:
        return identity()
    g = invert(f) if n < 0 else f
    return compose(*([g] * abs(n)))


def from_knots(knots: Sequence[tuple], degree: int, label: str = "") -> FundamentalDomainMap:
    """Piecewise-affine one-period map through (x, y) knots.

    Knots must span exactly one period in x; the closing piece wraps to
    (x0 + 1, y0 + degree) automatically if not supplied.
    """
    pts = [(rat(x), rat(y)) for x, y in knots]
    pts.sort()
    x0, y0 = pts[0]
    if pts[-1][0] - x0 < 1:
        pts.append((x0 + 1, y0 + degree))
    if pts[-1][0] - x0 != 1 or pts[-1][1] - y0 != degree:
        raise RepresentationError("knots must span one period and respect the degree")
    pieces = []
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if yb <= ya:
            raise RepresentationError(f"knots not strictly increasing at x={xa}")
        pieces.append(AffinePiece(xa, xb, ya, (yb - ya) / (xb - xa)))
    return FundamentalDomainMap(pieces, degree, label)


def from_grid(xs: Sequence[float], ys: Sequence[float], degree: int,
              label: str = "grid", snap_tol: float = 1e-9) -> FundamentalDomainMap:
    """Sampled lift over one period, linearly interpolated (floats kept exactly).

    Float sampling rarely closes the period identically, so the final sample
    is snapped onto (x0 + 1, y0 + degree) when it is within snap_tol.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise RepresentationError("grid needs matching xs/ys with at least two samples")
    pts = [(rat(x), rat(y)) for x, y in zip(xs, ys)]
    pts.sort()
    x0, y0 = pts[0]
    xe, ye = pts[-1]
    if abs(float(xe - x0 - 1)) > snap_tol or abs(float(ye - y0 - degree)) > snap_tol:
        raise RepresentationError(
            "grid must cover one period: endpoints off by more than snap_tol")
    pts[-1] = (x0 + 1, y0 + degree)
    return from_knots(pts, degree, label)


# ---------------------------------------------------------------------------
# float probe of exact paths


def eval_float_traced(f: MapTree, x: float) -> tuple[float, bool]:
    """Float value plus a flag telling whether the path stayed on affine
    pieces (exactly evaluable from rational input).  The flag is a fast probe;
    points at piece boundaries may be conservatively misclassified."""
    if isinstance(f, AffineMap):
        return f.eval_float(x), True
    if isinstance(f, FundamentalDomainMap):
        k = math.floor(x - f._x_lo_f)
        xr = x - k
        i = bisect.bisect_right(f._breaks, xr) - 1
        i = max(0, min(i, len(f.pieces) - 1))
        piece = f.pieces[i]
        return piece.eval_float(xr) + f.degree * k, isinstance(piece, AffinePiece)
    if isinstance(f, Inverse) and isinstance(f.inner, FundamentalDomainMap):
        inner = f.inner
        k = math.floor((x - inner._value_lo_f) / inner.degree)
        yr = x - inner.degree * k
        i = bisect.bisect_right(inner._value_breaks_f, yr) - 1
        i = max(0, min(i, len(inner.pieces) - 1))
        piece = inner.pieces[i]
        return piece.invert_float(yr) + k, isinstance(piece, AffinePiece)
    if isinstance(f, Compose):
        exact = True
        for part in reversed(f.parts):
            x, flag = eval_float_traced(part, x)
            exact = exact and flag
        return x, exact
    if isinstance(f, TranslateConjugate):
        s = float(f.shift)
        v, flag = eval_float_traced(f.inner, x - s)
        return v + s, flag
    return f.eval_float(x), False


# ---------------------------------------------------------------------------
# Fourier smoothing (opt-in)


def fourier_smooth(f: MapTree, degree_hint: int, harmonics: int,
                   samples: int = 0, kernel: str = "fejer") -> TrigPolyLift:
    """Approximate the periodic part f(x) - degree*x by a trig polynomial.

    kernel="fejer" (default) applies Fejer weights (1 - k/(K+1)): convolution
    with a nonnegative kernel, so monotonicity survives smoothing at every
    degree.  kernel="truncate" keeps the raw partial sum, which approximates
    faster but only becomes monotone at high degree.  The result must be
    re-verified against whatever inclusions the caller relies on.
    """
    import numpy as np

    if harmonics < 1:
        raise PreconditionError("need harmonics >= 1")
    if kernel not in ("fejer", "truncate"):
        raise PreconditionError(f"unknown smoothing kernel {kernel!r}")
    if samples <= 0:
        samples = 1
        while samples < max(8 * harmonics, 4096):
            samples *= 2
    if samples < 4 * harmonics:
        raise PreconditionError("need samples >= 4*harmonics")
    xs = np.arange(samples) / samples
    per = np.array([f.eval_float(float(x)) - degree_hint * float(x) for x in xs])
    spec = np.fft.rfft(per) / samples
    if kernel == "fejer":
        weights = 1.0 - np.arange(harmonics + 1) / (harmonics + 1)
    else:
        weights = np.ones(harmonics + 1)
    a0 = float(spec[0].real)
    cos_c = [2 * float(spec[k].real) * weights[k] for k in range(1, harmonics + 1)]
    sin_c = [-2 * float(spec[k].imag) * weights[k] for k in range(1, harmonics + 1)]
    return TrigPolyLift(degree_hint, a0, cos_c, sin_c)


# ---------------------------------------------------------------------------
# JSON map specs


def from_spec(spec: dict) -> MapTree:
    kind = spec.get("kind")
    if kind == "affine":
        return AffineMap(rat(spec["slope"]), rat(spec.get("offset", 0)))
    if kind == "theta":
        return build_theta(int(spec["j"]), rat(spec.get("a", "1/10")))
    if kind == "compose":
        return Compose([from_spec(s) for s in spec["of"]])
    if kind == "inverse":
        return invert(from_spec(spec["of"]))
    if kind == "translate_conjugate":
        return TranslateConjugate(rat(spec["shift"]), from_spec(spec["of"]))
    if kind == "trigpoly":
        return TrigPolyLift(int(spec["degree"]), float(spec.get("a0", 0.0)),
                            spec.get("cos", ()), spec.get("sin", ()))
    if kind == "sine_lift":
        return sine_lift(spec["amplitude"])
    if kind == "knots":
        return from_knots([(k[0], k[1]) for k in spec["points"]], int(spec["degree"]),
                          spec.get("label", ""))
    if kind == "grid":
        return from_grid([rat(v) for v in spec["xs"]], [rat(v) for v in spec["ys"]],
                         int(spec["degree"]))
    if kind == "fundamental":
        pieces = []
        for p in spec["pieces"]:
            if p["kind"] == "affine":
                pieces.append(AffinePiece(rat(p["lo"]), rat(p["hi"]),
                                          rat(p["value_lo"]), rat(p["slope"])))
            else:
                pieces.append(HermitePiece(rat(p["lo"]), rat(p["hi"]),
                                           rat(p["value_lo"]), rat(p["value_hi"]),
                                           rat(p["slope_lo"]), rat(p["slope_hi"])))
        return FundamentalDomainMap(pieces, int(spec["degree"]), spec.get("label", ""))
    raise PreconditionError(f"unknown map kind {kind!r}")
