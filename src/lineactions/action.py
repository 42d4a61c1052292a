"""The explicit BS(m, n) action on the line and its ping-pong certification.

The action is generated by g = g_n o g_m^{-1} and h(x) = x + 1, where
g_n is the degree-n lift Theta_n and g_m(x) = Theta_m(x - 1/2) + 1/2.
Covering-lift equivariance forces the relation g h^m g^{-1} = h^n exactly;
composing the factors the other way round would give the mirror relation
g h^n g^{-1} = h^m instead.

Faithfulness is certified pointwise: a pinch-free word applied to a base
point x0 in the interior of C intersect C_2 lands in (A^s + nZ) u (B^s + mZ),
hence moves x0.  certify_word replays that induction for one word with
rigorous enclosures; sweep_certify replays it for every pinch-free word in
an exponent/syllable box at once by collapsing words onto shared
(dyadic cell, integer offset) states, carrying exact multiplicities; the
cells' grid and the sweep's inverse width follow from the verified
ping-pong table's least slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import ConstructionError, PreconditionError
from .maps import (DEFAULT_INVERSE_WIDTH, AffineMap, Enclosure, MapTree,
                   TranslateConjugate, TrigPolyLift, _image, build_theta, compose,
                   fixed_points, fourier_smooth, from_spec, invert, leaves, rat, rat_str,
                   read_field, relation_residual)
from .words import BSWord, NormalForm, _pinch_between, count_pinch_free

BOUNDARY_GUARD = Fraction(1, 10**12)


@dataclass(frozen=True)
class Window:
    """Closed rational interval used as a ping-pong window."""

    lo: Fraction
    hi: Fraction
    name: str

    def to_json(self):
        return {"name": self.name, "lo": rat_str(self.lo), "hi": rat_str(self.hi)}


def locate_in_lattice(enc: Enclosure, window: Window, modulus: int):
    """Place enc in window + modulus*Z at s = modulus*round((mid - center)/modulus),
    mid the midpoint of enc (the float average for float ends) and center
    the window's.  Returns (verdict, s): Inside when enc lies in window + s,
    Inconclusive when only in window + s widened by BOUNDARY_GUARD, Outside
    otherwise; never rounds a straddling enclosure to Inside.  Requires
    width + 2*BOUNDARY_GUARD < modulus, so that no other translate can hold
    enc: one s' that did would give |mid - center - s'| < modulus/2.
    """
    center = (window.lo + window.hi) / 2
    s = modulus * round((Fraction((enc.lo + enc.hi) / 2) - center) / modulus)
    lo, hi = window.lo + s, window.hi + s
    if lo <= enc.lo and enc.hi <= hi:
        return "Inside", s
    if lo - BOUNDARY_GUARD <= enc.lo and enc.hi <= hi + BOUNDARY_GUARD:
        return "Inconclusive", s
    return "Outside", s


# ---------------------------------------------------------------------------
# ping-pong table


@dataclass
class PingPongTable:
    """Interval system and the verified inclusion facts for one (m, n); each
    fact's slack is the signed exact distance from its enclosure to its
    target window, and least_slack the least of them.  No fact checks that
    [0, 1] = A^u u C u (A^s + 1): windows_for(a) tiles it for every a."""

    m: int
    n: int
    a: Fraction
    windows: dict
    facts: list = field(default_factory=list)
    verified: bool = False
    mode: str = "rational"
    least_slack: Optional[Fraction] = None

    @staticmethod
    def windows_for(a: Fraction) -> dict:
        half = Fraction(1, 2)
        A = Window(-a, a, "A")
        As = Window(-a, Fraction(0), "A^s")
        Au = Window(Fraction(0), a, "A^u")
        C = Window(a, 1 - a, "C")
        return {
            "A": A, "A^s": As, "A^u": Au, "C": C,
            "B": Window(A.lo + half, A.hi + half, "B"),
            "B^s": Window(As.lo + half, As.hi + half, "B^s"),
            "B^u": Window(Au.lo + half, Au.hi + half, "B^u"),
            "C_2": Window(C.lo + half, C.hi + half, "C_2"),
        }

    def to_json(self):
        return {"m": self.m, "n": self.n, "a": rat_str(self.a),
                "windows": {k: w.to_json() for k, w in self.windows.items()},
                "verified": self.verified, "mode": self.mode,
                "least_slack": None if self.least_slack is None else rat_str(self.least_slack),
                "facts": self.facts}


# ---------------------------------------------------------------------------
# the action


@dataclass
class BSAction:
    """g = g_n o g_m^{-1} and h = x + 1, with g h^m g^{-1} = h^n.  The window
    parameter a must lie in (0, 1/2), as Theta's does, so that each target
    window (width a, modulus >= 1) meets locate_in_lattice's precondition."""

    m: int
    n: int
    a: Fraction
    g_n: MapTree
    g_m: MapTree
    g: MapTree
    g_inv: MapTree
    h: MapTree
    table: Optional[PingPongTable] = None

    def __post_init__(self):
        if not (0 < self.a < Fraction(1, 2)):
            raise PreconditionError(f"need 0 < a < 1/2, got {self.a}")
        self.g_m_inv = invert(self.g_m)
        self.g_n_inv = invert(self.g_n)

    @property
    def smoothed(self) -> bool:
        """True when g_n or g_m has a trig-polynomial (Fourier-smoothed) leaf."""
        return any(isinstance(leaf, TrigPolyLift)
                   for lift in (self.g_n, self.g_m) for leaf in leaves(lift))

    @classmethod
    def from_lifts(cls, m: int, n: int, a: Fraction, g_n: MapTree, g_m: MapTree) -> "BSAction":
        g = compose(g_n, invert(g_m))
        return cls(m, n, a, g_n, g_m, g, invert(g), AffineMap(1, 1))

    def relation_residual(self, samples: int = 1000) -> float:
        """sup |g(h^m(x)) - h^n(g(x))| over an even float sample of [0, 3]."""
        return relation_residual(self.g, self.h, self.m, self.n,
                                 3.0 * np.arange(samples) / (samples - 1))

    def relation_residual_exact(self, points) -> list:
        """Per-point residual records of g(x + m) = g(x) + n at rational x.

        g is enclosed at x, and at x + m when g(x) is exact, with inverse
        width 1, so no cubic inverse bisects.  Where both enclosures are
        exact (every inverse on the path lands on an affine piece) the record
        holds the exact residual, which must be 0.  Elsewhere it holds
        |g(x + m) - g(x) - n| by eval_float plus 1e-12: a float bound, not a
        rigorous one; the sharp 1e-12 statement is relation_residual's float
        sample, which covers every path.
        """
        out = []
        for x in points:
            xq = rat(x)
            rhs = self.g.eval_enclosure(Enclosure.point(xq), Fraction(1))
            lhs = rhs.exact and self.g.eval_enclosure(Enclosure.point(xq + self.m), Fraction(1))
            if lhs and lhs.exact:
                out.append({"x": rat_str(xq), "exact_path": True,
                            "residual": rat_str(lhs.lo - rhs.lo - self.n)})
            else:
                xf = float(xq)
                bound = abs(self.g.eval_float(xf + self.m) - self.g.eval_float(xf) - self.n)
                out.append({"x": rat_str(xq), "exact_path": False,
                            "residual_bound": repr(bound + 1e-12)})
        return out

    def to_json(self):
        data = {"m": self.m, "n": self.n, "a": rat_str(self.a),
                "smoothed": self.smoothed,
                "g_n": self.g_n.to_spec(), "g_m": self.g_m.to_spec(),
                "g": self.g.to_spec(), "h": self.h.to_spec()}
        if self.table is not None:
            data["table"] = self.table.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "BSAction":
        """Rebuild an action written by to_json; g and g^-1 are recomposed
        from the lifts.  A stored ping-pong table is not trusted: the
        inclusions are verified again on the rebuilt maps and windows, and a
        stored smoothed flag must agree with the lifts.  A missing or malformed
        field raises PreconditionError naming it."""
        m, n = read_field(data, "m", int), read_field(data, "n", int)
        act = cls.from_lifts(m, n, read_field(data, "a", rat),
                             read_field(data, "g_n", from_spec), read_field(data, "g_m", from_spec))
        if data.get("smoothed", act.smoothed) != act.smoothed:
            raise PreconditionError(
                f"stored smoothed={data['smoothed']!r} disagrees with the lifts")
        if data.get("table"):
            verify_inclusions(act)
        return act


def build_action(m: int, n: int, a=Fraction(1, 10),
                 fourier_harmonics: Optional[int] = None) -> BSAction:
    """Construct the action for 1 <= m < n and verify the relation on 1000
    samples to 1e-12.

    With fourier_harmonics set, both lifts are replaced by Fejer-smoothed
    trigonometric polynomials (smooth everywhere); the relation still holds
    because it only uses covering-lift equivariance, up to 1e-9 in floats,
    and the inclusions must be re-verified by the caller.
    """
    if not (1 <= m < n):
        raise PreconditionError(f"need 1 <= m < n, got ({m}, {n})")
    a = rat(a)
    g_n: MapTree = build_theta(n, a)
    g_m_core: MapTree = build_theta(m, a)
    if fourier_harmonics is not None:
        g_n = fourier_smooth(g_n, n, fourier_harmonics)
        g_m_core = fourier_smooth(g_m_core, m, fourier_harmonics)
    act = BSAction.from_lifts(m, n, a, g_n, TranslateConjugate(Fraction(1, 2), g_m_core))
    residual = act.relation_residual()
    relation_tol = 1e-9 if act.smoothed else 1e-12
    if residual > relation_tol:
        raise ConstructionError(
            f"relation residual {residual:.3g} exceeds {relation_tol:.3g}; "
            "the construction is broken")
    return act


# ---------------------------------------------------------------------------
# inclusion verification


def _inclusion_checks(act: BSAction):
    """(fact id, map, source window, translate k, target window, modulus)."""
    m, n = act.m, act.n
    w = PingPongTable.windows_for(act.a)
    gn, gm, gn_inv, gm_inv = act.g_n, act.g_m, act.g_n_inv, act.g_m_inv
    checks = []
    for k in range(1, n):
        checks.append(("eqn1", f"g_n^-1(A+{k})", gn_inv, w["A"], k, w["A^u"], 1))
    for k in range(m):
        checks.append(("eqn2", f"g_m^-1(C_2+{k})", gm_inv, w["C_2"], k, w["B^u"], 1))
    for k in range(1, m):
        checks.append(("eqn3", f"g_m^-1(B+{k})", gm_inv, w["B"], k, w["B^u"], 1))
    checks.append(("eqn4", "g_n(B)", gn, w["B"], 0, w["A^s"], n))
    for k in range(n):
        checks.append(("eqn5", f"g_n^-1(B+{k})", gn_inv, w["B"], k, w["A^u"], 1))
    checks.append(("eqn6", "g_m(A)", gm, w["A"], 0, w["B^s"], m))
    for k in range(m):
        checks.append(("eqn7", f"g_m^-1(A+{k})", gm_inv, w["A"], k, w["B^u"], 1))
    for k in range(n):
        checks.append(("base", f"g_n^-1(C+{k})", gn_inv, w["C"], k, w["A^u"], 1))
    return w, checks


def _own_mode(act: BSAction, mode: Optional[str]) -> str:
    """The action's arithmetic, "float" for a smoothed action and "rational"
    otherwise; a mode the caller names must be that one."""
    own = "float" if act.smoothed else "rational"
    if mode is not None and mode != own:
        raise PreconditionError(
            f"this action's enclosures are {own}, not {mode}; drop the mode argument")
    return own


def verify_inclusions(act: BSAction, mode: Optional[str] = None) -> PingPongTable:
    """Check the seven translate inclusions (plus the base-case auxiliary one)
    with rigorous enclosures; every verdict must be Inside for a verified table.

    Equations eqn1/eqn3 quantify over nonzero residues only, so for m = 1
    eqn3 is vacuous and recorded as Inside with no translates.  The
    arithmetic follows the maps: exact for a piecewise action,
    outward-rounded floats for a smoothed one.  ``mode`` may only name that
    arithmetic ("float" if and only if act.smoothed); any other value raises
    PreconditionError.
    """
    windows, checks = _inclusion_checks(act)
    table = PingPongTable(act.m, act.n, act.a, windows, mode=_own_mode(act, mode))
    ids_seen, slacks = set(), []
    for fact_id, desc, tree, src, k, target, modulus in checks:
        ids_seen.add(fact_id)
        enc = tree.eval_enclosure(Enclosure(src.lo + k, src.hi + k))
        verdict, s = locate_in_lattice(enc, target, modulus)
        lo, hi = enc.rational_ends
        slacks.append(min(lo - target.lo - s, target.hi + s - hi))
        table.facts.append({
            "id": fact_id, "check": desc, "target": f"{target.name}+{modulus}Z",
            "verdict": verdict, "offset": s, "enclosure": enc.to_json(),
            "slack": rat_str(slacks[-1]),
        })
    for vacuous in {"eqn1", "eqn2", "eqn3", "eqn4", "eqn5", "eqn6", "eqn7"} - ids_seen:
        table.facts.append({"id": vacuous, "check": "no residues to test",
                            "target": "", "verdict": "Inside", "offset": 0,
                            "enclosure": None, "slack": None})
    table.least_slack = min(slacks)
    table.verified = all(f["verdict"] == "Inside" for f in table.facts)
    act.table = table
    return table


# ---------------------------------------------------------------------------
# single-word certification


@dataclass
class Certificate:
    """Step-by-step rigorous trace that a word moves the base point."""

    word: str
    conjugated_word: str
    x0: Fraction
    verdict: str                 # nontrivial | inconclusive
    final_tag: str
    steps: list
    final_enclosure: Optional[Enclosure]
    separation: Fraction         # distance from x0 to the target window set

    def to_json(self):
        return {"word": self.word, "conjugated_word": self.conjugated_word,
                "x0": rat_str(self.x0), "verdict": self.verdict,
                "final_tag": self.final_tag,
                "separation": rat_str(self.separation),
                "final_enclosure": (self.final_enclosure.to_json()
                                    if self.final_enclosure else None),
                "steps": self.steps}


def _window_separation(x0: Fraction, windows: dict) -> Fraction:
    """Distance from x0 to (A^s + Z) u (B^s + Z), a lower bound for the
    displacement of a certified word."""
    ends = [(w.lo + k, w.hi + k) for w in (windows["A^s"], windows["B^s"]) for k in range(-1, 3)]
    return min(lo - x0 if x0 < lo else x0 - hi if x0 > hi else Fraction(0) for lo, hi in ends)


def _base_point(x0, windows: dict) -> Fraction:
    """x0 as a rational, checked to lie in the open interval (C_2.lo, C.hi)."""
    x0 = rat(x0)
    c_lo, c_hi = windows["C_2"].lo, windows["C"].hi
    if not (c_lo < x0 < c_hi):
        raise PreconditionError(
            f"x0 must lie in the open interval ({c_lo}, {c_hi}), got {x0}")
    return x0


def _pingpong_step(act: BSAction, windows: dict, enc: Enclosure, sign: int,
                   inverse_width: Fraction = DEFAULT_INVERSE_WIDTH):
    """Apply t (sign +1, i.e. g) or t^-1 (sign -1, i.e. g^-1) to enc in halves.

    Half one, g_m^-1 (resp. g_n^-1), must land in B^u + Z (resp. A^u + Z) at
    offset s1.  Half two, g_n (resp. g_m), is applied to half one reduced by
    s1 and must land in A^s + nZ (resp. B^s + mZ) at offset s2; its enclosure
    and s2 are in those reduced coordinates, so the unreduced ones are n*s1
    (resp. m*s1) further on.  Returns (e1, v1, s1, e2, v2, s2); e2, v2 and s2
    are None when half one is not Inside.  Cubic inverses bisect to
    inverse_width.
    """
    if sign == 1:
        first, w1, second, w2, mod2 = act.g_m_inv, windows["B^u"], act.g_n, windows["A^s"], act.n
    else:
        first, w1, second, w2, mod2 = act.g_n_inv, windows["A^u"], act.g_m, windows["B^s"], act.m
    e1 = first.eval_enclosure(enc, inverse_width)
    v1, s1 = locate_in_lattice(e1, w1, 1)
    if v1 != "Inside":
        return e1, v1, s1, None, None, None
    e2 = second.eval_enclosure(e1.shift(-s1), inverse_width)
    v2, s2 = locate_in_lattice(e2, w2, mod2)
    return e1, v1, s1, e2, v2, s2


def certify_word(act: BSAction, w: Union[BSWord, NormalForm],
                 x0=Fraction(3, 4)) -> Certificate:
    """Replay the four-case ping-pong induction for one pinch-free word.

    The word is conjugated first so its leading a-power is absorbed into the
    trailing one.  Never returns "trivial": a pinch-free word either certifies
    nontrivial or the replay reports an inconclusive enclosure.  The
    enclosures are exact for a piecewise action and outward-rounded floats
    for a smoothed one.
    """
    word = w.word if isinstance(w, NormalForm) else w
    if (word.m, word.n) != (act.m, act.n):
        raise PreconditionError(
            f"word lives in BS({word.m},{word.n}), action is BS({act.m},{act.n})")
    if not word.is_pinch_free():
        raise PreconditionError(f"word {word} is not pinch-free; reduce it first")
    windows = PingPongTable.windows_for(act.a)
    x0 = _base_point(x0, windows)
    if len(word.syllables) == 0:
        raise PreconditionError("empty word cannot be certified nontrivial")

    syl = word.syllables
    conj = BSWord(word.m, word.n, syl[1:] + syl[:1]) if syl[0][0] == 'a' else word
    separation = _window_separation(x0, windows)

    if conj.t_count == 0:
        shift = conj.a_total
        return Certificate(str(word), str(conj), x0, "nontrivial",
                           f"x0+{shift}", [{"syllable": f"a^{shift}",
                                            "tag": "integer-translate",
                                            "offset": shift}],
                           Enclosure.point(x0 + shift), abs(Fraction(shift)))

    enc = Enclosure.point(x0)
    steps = []
    verdict = "nontrivial"
    final_tag = ""
    for kind, exp in reversed(conj.syllables):
        if kind == 'a':
            enc = enc.shift(exp)
            steps.append({"syllable": f"a^{exp}", "tag": "shift", "offset": exp,
                          "enclosure": enc.to_json()})
            continue
        syllable, tag1, tag2, mod2 = (("t", "B^u + Z", "A^s + nZ", act.n) if exp == 1
                                      else ("t^-1", "A^u + Z", "B^s + mZ", act.m))
        enc, v1, s1, e2, v2, s2 = _pingpong_step(act, windows, enc, exp)
        steps.append({"syllable": syllable, "half": 1, "tag": tag1, "verdict": v1,
                      "offset": s1, "enclosure": enc.to_json()})
        final_tag = tag1
        if v1 != "Inside":
            verdict = "inconclusive"
            break
        enc = e2.shift(mod2 * s1)
        steps.append({"syllable": syllable, "half": 2, "tag": tag2, "verdict": v2,
                      "offset": s2 + mod2 * s1, "enclosure": enc.to_json()})
        final_tag = tag2
        if v2 != "Inside":
            verdict = "inconclusive"
            break
    return Certificate(str(word), str(conj), x0, verdict, final_tag, steps,
                       enc, separation)


# ---------------------------------------------------------------------------
# collapsed-state sweep over a whole word box


@dataclass
class SweepSummary:
    m: int
    n: int
    max_syllables: int
    exponent_bound: int
    x0: Fraction
    counts_by_syllables: dict
    expected_counts: dict
    nontrivial: int
    inconclusive: int
    states_by_depth: dict
    max_enclosure_width: float
    cell_width: Fraction

    @property
    def total_words(self) -> int:
        return sum(self.counts_by_syllables.values())

    def counts_match(self) -> bool:
        return self.counts_by_syllables == self.expected_counts

    def to_json(self):
        return {"m": self.m, "n": self.n,
                "max_syllables": self.max_syllables,
                "exponent_bound": self.exponent_bound, "x0": rat_str(self.x0),
                "total_words": self.total_words,
                "counts_by_syllables": {str(k): v for k, v in
                                        self.counts_by_syllables.items()},
                "expected_counts": {str(k): v for k, v in
                                    self.expected_counts.items()},
                "counts_match_transfer_matrix": self.counts_match(),
                "nontrivial": self.nontrivial,
                "inconclusive": self.inconclusive,
                "states_by_depth": {str(k): v for k, v in
                                    self.states_by_depth.items()},
                "max_enclosure_width": repr(self.max_enclosure_width),
                "cell_width": rat_str(self.cell_width)}


def _dyadic_cell(enc: Enclosure, window: Window, bits: int) -> Enclosure:
    """enc rounded outward to the grid 2^-bits Z, or enc itself when that cell
    leaves window; exact in enc's arithmetic, the grid points being floats."""
    scale = 2 ** bits
    cell = _image(enc, Fraction(math.floor(enc.lo * scale), scale),
                  Fraction(math.ceil(enc.hi * scale), scale))
    return cell if cell.inside(window.lo, window.hi) else enc


def sweep_certify(act: BSAction, max_syllables: int, exponent_bound: int,
                  x0=Fraction(3, 4), mode: Optional[str] = None) -> SweepSummary:
    """Certify every pinch-free word in the box at once.

    Words sharing the same induction state are collapsed: a state is a cell
    plus the exact integer offset, and word multiplicities are carried
    along.  A cell is the enclosure reduced into A^s or B^s and rounded
    outward to the grid 2^-K Z, 2^-K the largest power of two at most a
    quarter of the least slack of act.table (verified here if absent; one
    that does not verify raises PreconditionError), or the enclosure itself
    where the rounded cell would leave the window.  Every distinct
    transition is certified once with the rigor of certify_word, with cubic
    inverses bisected to 2^-K/16: far below the slack by which the table
    puts each whole window Inside, so no edge from a cell is lost to them.
    The counts per t-syllable class are checked against the independent
    transfer-matrix count.  ``mode`` may only name the action's arithmetic
    ("float" if and only if act.smoothed); any other value raises
    PreconditionError.
    """
    if max_syllables < 0 or exponent_bound < 1:
        raise PreconditionError("bounds must be positive (max_syllables may be 0)")
    windows = PingPongTable.windows_for(act.a)
    x0 = _base_point(x0, windows)
    _own_mode(act, mode)
    table = act.table or verify_inclusions(act)
    if not table.verified:
        raise PreconditionError("the ping-pong table of this action does not verify")
    bits = (math.ceil(4 / table.least_slack) - 1).bit_length()  # 2^-bits <= slack/4
    inverse_width = Fraction(1, 2 ** (bits + 4))

    b = exponent_bound
    m, n = act.m, act.n

    encs: dict[tuple, int] = {}
    enc_list: list[Enclosure] = []

    def intern(enc: Enclosure) -> int:
        idx = encs.setdefault((enc.lo, enc.hi), len(enc_list))
        if idx == len(enc_list):
            enc_list.append(enc)
        return idx

    edge_cache: dict[tuple, Optional[tuple]] = {}

    def edge(enc_id: int, v: int, direction: int):
        """Apply g (direction=+1) or g^-1 (-1) to enc_list[enc_id] + v.

        Returns (new_enc_id, s1, s2), or None when a half is not Inside.
        """
        key = (enc_id, v, direction)
        if key in edge_cache:
            return edge_cache[key]
        _, _, s1, e2, v2, s2 = _pingpong_step(act, windows, enc_list[enc_id].shift(v),
                                              direction, inverse_width)
        result = None
        if v2 == "Inside":
            cell = _dyadic_cell(e2.shift(-s2), windows["A^s" if direction == 1 else "B^s"],
                                bits)
            result = (intern(cell), s1, s2)
        edge_cache[key] = result
        return result

    counts = {0: 2 * b}        # pure a^r words, r != 0: displacement r, nontrivial
    inconclusive = 0
    states_by_depth = {}
    base_id = intern(Enclosure.point(x0))

    # the (r, new_sign) moves allowed after a state's t-syllable sign; a
    # depth-0 state has none and moves on to either sign with r = 0
    moves = {sign: [(r, new_sign) for r in range(-b, b + 1) for new_sign in (1, -1)
                    if not _pinch_between(new_sign, r, sign, m, n)]
             for sign in (1, -1)}
    moves[0] = [(0, 1), (0, -1)]

    # depth-0 states fold (r_0, r_k) pairs into their sum
    frontier: dict[tuple, int] = {}
    for shift_sum in range(-2 * b, 2 * b + 1):
        frontier[(0, base_id, shift_sum)] = (2 * b + 1) - abs(shift_sum)

    for depth in range(1, max_syllables + 1):
        nxt: dict[tuple, int] = {}
        for (sign, enc_id, offset), mult in frontier.items():
            for r, new_sign in moves[sign]:
                total = offset + r
                lattice = m if new_sign == 1 else n
                v = total % lattice
                u = (total - v) // lattice
                res = edge(enc_id, v, new_sign)
                if res is None:
                    inconclusive += mult
                    continue
                new_enc, s1, s2 = res
                out_mod = n if new_sign == 1 else m
                new_offset = s2 + out_mod * (s1 + u)
                key = (new_sign, new_enc, new_offset)
                nxt[key] = nxt.get(key, 0) + mult
        frontier = nxt
        counts[depth] = sum(frontier.values())
        states_by_depth[depth] = len(frontier)

    # inconclusive edges drop their word mass from the frontier, so any
    # inconclusive > 0 also makes the transfer-matrix cross-check fail
    expected = count_pinch_free(m, n, max_syllables, b)
    nontrivial = sum(counts.values())
    max_width = max((float(cell.width) for cell in enc_list[base_id + 1:]), default=0.0)
    return SweepSummary(m, n, max_syllables, b, x0, counts, expected,
                        nontrivial, inconclusive, states_by_depth, max_width,
                        Fraction(1, 2 ** bits))


# ---------------------------------------------------------------------------
# rotation obstruction and the IVT fixed point


def rotation_obstruction(m: int, n: int) -> dict:
    """Admissible rotation numbers for the h-generator of any circle action.

    tau(h) must be p/(m-n) mod 1 for some integer p, equivalently h has a
    periodic point whose period divides |n - m|.
    """
    if m == n:
        raise PreconditionError("m = n is degenerate: no constraint arises")
    d = abs(n - m)
    values = sorted({Fraction(p, d) % 1 for p in range(d)})
    return {"admissible": values, "period_divisor": d}


def find_g_fixed_point(g: MapTree, m: int = 1, search_bound: int = 60) -> dict:
    """The first fixed point of g that maps.fixed_points brackets on the grid
    x = m*k, |k| <= search_bound; k_bracket names the grid cell it lies in.

    Assumes the action is normalized so h(x) = x + 1 (fixed-point free).
    """
    xs = m * np.arange(-search_bound, search_bound + 1, dtype=float)
    brackets = fixed_points(g, xs)
    if not brackets:
        raise PreconditionError(
            f"no sign change of g(x) - x on x = {m}*k for |k| <= {search_bound}")
    lo, hi = brackets[0]
    k = int(np.searchsorted(xs, lo, side="right")) - 1 - search_bound
    x_star = 0.5 * (lo + hi)
    return {"k_bracket": (k, k if m * k == hi else k + 1), "bracket": (lo, hi),
            "width": hi - lo, "fixed_point": x_star,
            "residual": abs(g.eval_float(x_star) - x_star)}
