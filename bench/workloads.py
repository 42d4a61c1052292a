"""The benchmark's three workloads: inputs drawn from the seed, the calls into
lineactions that make one operation, and the checks on each output.

Every operation gets fresh inputs from the workload's seeded stream, so no
two operations in a run share words, base points or lifts.  Operations come
in rounds: one round is one operation of each kind in the workload's fixed
order, and a run attempts whole rounds only.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import checks
from checks import require

A = Fraction(1, 10)                    # the lifts' parameter a (the program's default)
X0_LO, X0_HI = Fraction(3, 5), Fraction(9, 10)   # open window for the base point


def import_program():
    """The lineactions modules the workloads call, looked up at call time so
    that a traced run sees its wrappers."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"lineactions.{name}")
        for name in ("action", "circle", "maps", "presentations", "rigidity", "words")})


def no_span(name):
    return contextlib.nullcontext()


def random_x0(rng: random.Random) -> Fraction:
    """A rational base point strictly inside (3/5, 9/10)."""
    q = rng.randint(11, 97)
    p = rng.randint(math.floor(X0_LO * q) + 1, math.ceil(X0_HI * q) - 1)
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# words as syllable lists in written order


def inverse(word):
    return [(kind, -exp) for kind, exp in reversed(word)]


def random_letters(rng: random.Random, length: int, a_max: int = 1):
    out = []
    for _ in range(length):
        if rng.random() < 0.4:
            out.append(('t', rng.choice((1, -1))))
        else:
            out.append(('a', rng.choice((1, -1)) * rng.randint(1, a_max)))
    return out


def relator(m: int, n: int):
    """t a^m t^-1 a^-n, trivial in BS(m, n)."""
    return [('t', 1), ('a', m), ('t', -1), ('a', -n)]


def conjugated_relator(rng, m, n, conj_len):
    g = random_letters(rng, conj_len, a_max=2)
    r = relator(m, n) if rng.random() < 0.5 else inverse(relator(m, n))
    return g + r + inverse(g)


def pinch_free_core(rng, m, n, t_syllables, bound=4):
    """a^{r_k} t^{e_k} ... t^{e_1} a^{r_0} with no pinch between t-letters."""
    signs = [rng.choice((1, -1)) for _ in range(t_syllables)]
    word = [('a', rng.randint(-bound, bound))]
    for i, sign in enumerate(signs):
        word.append(('t', sign))
        if i + 1 < len(signs):
            nxt = signs[i + 1]
            allowed = [r for r in range(-bound, bound + 1)
                       if not (sign == 1 and nxt == -1 and r % m == 0)
                       and not (sign == -1 and nxt == 1 and r % n == 0)]
            word.append(('a', rng.choice(allowed)))
    word.append(('a', rng.randint(-bound, bound)))
    return [s for s in word if s != ('a', 0)]


def insert_at(word, pos, piece):
    return word[:pos] + piece + word[pos:]


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    kinds: tuple = ()          # one operation of each kind makes a round
    tail_percentile = 0        # op_tail_ms reports this percentile
    trace_rounds = 0           # rounds replayed by a traced run

    def __init__(self, seed: int, span=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.span = span or no_span

    def setup(self, lib, pause) -> None:
        """Build what the operations need; call pause() between steps."""
        self.lib = lib

    def next_round(self) -> list:
        return [(kind, getattr(self, f"make_{kind}")()) for kind in self.kinds]

    def run(self, op):
        kind, params = op
        return getattr(self, f"run_{kind}")(params)

    def check(self, op, output) -> None:
        kind, params = op
        getattr(self, f"check_{kind}")(params, output)


# ---------------------------------------------------------------------------
# sweep: one op is one sweep_certify box


class Sweep(Workload):
    """Collapsed-state certification of whole word boxes.  Four piecewise
    actions in exact rational mode and one Fourier-smoothed (real-analytic)
    action in float mode; the base point is drawn per box."""

    name = "sweep"
    # kind -> ((m, n), max t-syllables, exponent bound, smoothed); the costs
    # differ by about twofold from one box to the next, so the median is the
    # BS(1,2) box and the p90 the BS(2,3) rational box
    BOXES = {
        "bs34": ((3, 4), 1, 4, False),
        "bs23_analytic": ((2, 3), 3, 4, True),
        "bs12": ((1, 2), 3, 4, False),
        "bs25": ((2, 5), 2, 4, False),
        "bs23": ((2, 3), 3, 4, False),
    }
    kinds = tuple(BOXES)
    tail_percentile = 90
    trace_rounds = 2
    HARMONICS = 256

    def setup(self, lib, pause):
        super().setup(lib, pause)
        self.actions = {}
        for kind, ((m, n), _, _, smoothed) in self.BOXES.items():
            pause()
            if smoothed:
                act = lib.action.build_action(m, n, A, fourier_harmonics=self.HARMONICS)
                table = lib.action.verify_inclusions(act, mode="float")
            else:
                act = lib.action.build_action(m, n, A)
                table = lib.action.verify_inclusions(act)
            require(table.verified, f"ping-pong table for {kind} did not verify")
            self.actions[kind] = act

    def next_round(self):
        return [(kind, random_x0(self.rng)) for kind in self.kinds]

    def run(self, op):
        kind, x0 = op
        _, depth, bound, smoothed = self.BOXES[kind]
        return self.lib.action.sweep_certify(self.actions[kind], depth, bound, x0,
                                             mode="float" if smoothed else "rational")

    def check(self, op, summary):
        (m, n), depth, bound, _ = self.BOXES[op[0]]
        checks.check_sweep(m, n, depth, bound, summary.counts_by_syllables,
                           summary.inconclusive, summary.nontrivial)


# ---------------------------------------------------------------------------
# queries: one op is one word-problem, certification or relation query


class Queries(Workload):
    """Word-problem queries with no reuse between words: BS(1, n) triviality
    and equality, BS(m, n) equality with a pinch-free core followed by the
    certificate of the normal form, trivial products of conjugated relators,
    and Aut(F_n) relation instances beside sign-flipped non-relations."""

    name = "queries"
    # certification is most of the operations, so the median query is one;
    # one long relator product per round makes the tail
    kinds = ("certify", "random_1n", "certify", "equal_1n", "certify", "relators",
             "certify", "autfn", "certify", "long", "certify")
    tail_percentile = 99
    trace_rounds = 60
    PAIRS = ((2, 3), (2, 5), (3, 4))
    LENGTHS = (100, 1000)               # letters of the BS(1, n) and relator words
    LONG = (1800, 2000)                 # letters of the long relator products

    def setup(self, lib, pause):
        super().setup(lib, pause)
        self.actions = {}
        for m, n in self.PAIRS:
            pause()
            act = lib.action.build_action(m, n, A)
            require(lib.action.verify_inclusions(act).verified,
                    f"ping-pong table for BS({m},{n}) did not verify")
            self.actions[(m, n)] = act

    def word(self, m, n, syllables):
        return self.lib.words.BSWord(m, n, tuple(syllables))

    # -- BS(1, n) triviality of random words ------------------------------
    def make_random_1n(self):
        rng = self.rng
        return rng.choice((2, 3)), random_letters(rng, rng.randint(*self.LENGTHS))

    def run_random_1n(self, params):
        n, syl = params
        return self.lib.words.is_trivial(self.word(1, n, syl))

    def check_random_1n(self, params, answer):
        n, syl = params
        checks.check_answer("BS(1,n) triviality", answer,
                            checks.affine_image(n, syl) == (1, 0))

    # -- BS(1, n) equality: a relator inserted, or a letter ---------------
    def make_equal_1n(self):
        rng = self.rng
        n = rng.choice((2, 3))
        w1 = random_letters(rng, rng.randint(*self.LENGTHS) // 2)
        w2 = insert_at(w1, rng.randint(0, len(w1)), conjugated_relator(rng, 1, n, 4))
        same = rng.random() < 0.5
        if not same:
            w2 = insert_at(w2, rng.randint(0, len(w2)), [('a', rng.choice((1, -1)))])
        return n, w1, w2, same

    def run_equal_1n(self, params):
        n, w1, w2, _ = params
        return self.lib.words.equal(self.word(1, n, w1), self.word(1, n, w2))

    def check_equal_1n(self, params, answer):
        n, w1, w2, same = params
        checks.check_answer("BS(1,n) equality", answer, same)
        checks.check_answer("BS(1,n) equality (affine model)", answer,
                            checks.affine_image(n, w1) == checks.affine_image(n, w2))

    # -- BS(m, n): padded word equals its core; certify the normal form ---
    def make_certify(self):
        rng = self.rng
        m, n = rng.choice(self.PAIRS)
        core = pinch_free_core(rng, m, n, rng.randint(2, 4))
        word = list(core)
        for _ in range(rng.randint(3, 6)):
            pos = rng.randint(0, len(word))
            if rng.random() < 0.5:
                piece = conjugated_relator(rng, m, n, rng.randint(2, 8))
            else:
                g = random_letters(rng, rng.randint(1, 6), a_max=3)
                piece = g + inverse(g)
            word = insert_at(word, pos, piece)
        return m, n, core, word, random_x0(rng)

    def run_certify(self, params):
        m, n, core, word, x0 = params
        w = self.word(m, n, word)
        same = self.lib.words.equal(w, self.word(m, n, core))
        nf = self.lib.words.reduce(w)
        cert = self.lib.action.certify_word(self.actions[(m, n)], nf, x0)
        return same, nf.word.syllables, cert

    def check_certify(self, params, output):
        m, n, core, word, x0 = params
        same, normal_form, cert = output
        checks.check_answer("BS(m,n) equality with the core", same, True)
        require(checks.pinches(m, n, normal_form) == 0, f"normal form {normal_form} has a pinch")
        require(checks.t_count(normal_form) == checks.t_count(core),
                f"normal form has {checks.t_count(normal_form)} t-letters, core has "
                f"{checks.t_count(core)}")
        enc = cert.final_enclosure
        checks.check_certificate(m, n, A, x0, cert.verdict, enc.lo, enc.hi)

    # -- trivial products of conjugated relators --------------------------
    def relator_product(self, m, n, length):
        word = []
        while len(word) < length:
            word += conjugated_relator(self.rng, m, n, self.rng.randint(2, 20))
        return m, n, word

    def make_relators(self):
        m, n = self.rng.choice(((1, 2), (1, 3)) + self.PAIRS)
        return self.relator_product(m, n, self.rng.randint(*self.LENGTHS))

    def make_long(self):
        return self.relator_product(1, 2, self.rng.randint(*self.LONG))

    def run_relators(self, params):
        m, n, word = params
        return self.lib.words.is_trivial(self.word(m, n, word))

    run_long = run_relators

    def check_relators(self, params, answer):
        checks.check_answer("product of conjugated relators", answer, True)

    check_long = check_relators

    # -- Aut(F_n) relation instances and sign-flipped non-relations -------
    def make_autfn(self):
        rng = self.rng
        rank = rng.randint(3, 6)
        family = rng.choice("AB")
        i, j, k = rng.sample(range(1, rank + 1), 3)
        conj = [(rng.choice("AB"), *rng.sample(range(1, rank + 1), 2), rng.choice((1, -1)))
                for _ in range(rng.randint(2, 4))]
        shape = rng.choice(("commutator", "commutator_inv", "braid"))
        holds = shape == "braid" or rng.random() < 0.5
        return rank, family, (i, j, k), shape, holds, conj

    def run_autfn(self, params):
        rank, family, (i, j, k), shape, holds, conj = params
        P = self.lib.presentations
        with self.span("presentations.relation_check"):
            gen = P.aut_A if family == "A" else P.aut_B
            if shape == "braid":
                x, y_inv = gen(rank, i, j), gen(rank, j, i).inverse()
                lhs, rhs = x.compose(y_inv).compose(x), y_inv.compose(x).compose(y_inv)
            else:
                xjk = gen(rank, j, k)
                lhs = P.commutator(gen(rank, i, j),
                                   xjk if shape == "commutator" else xjk.inverse())
                # [X_ij, X_jk] = X_ik^-1 and [X_ij, X_jk^-1] = X_ik
                rhs = gen(rank, i, k)
                if (shape == "commutator") == holds:
                    rhs = rhs.inverse()
            c = P.identity_aut(rank)
            for fam, a, b, sign in conj:
                g = (P.aut_A if fam == "A" else P.aut_B)(rank, a, b)
                c = c.compose(g if sign == 1 else g.inverse())
            return P.aut_equal(c.compose(lhs).compose(c.inverse()),
                               c.compose(rhs).compose(c.inverse()))

    def check_autfn(self, params, answer):
        checks.check_answer("Aut(F_n) relation", answer, params[4])


# ---------------------------------------------------------------------------
# dynamics: one op is one job on lifts in float mode


def phase_lift(lib, amplitude: float, phase: float):
    """x + amplitude * sin(2 pi (x - phase)) as a trigonometric-polynomial lift."""
    two_pi_phase = 2 * math.pi * phase
    return lib.maps.TrigPolyLift(1, 0.0, (-amplitude * math.sin(two_pi_phase),),
                                 (amplitude * math.cos(two_pi_phase),))


class Dynamics(Workload):
    """Float evaluation of lifts and the conjugacy solver: translation numbers
    of conjugated rotations and of periodic knot lifts, the rigidity solver on
    perturbed standard BS(1, n) actions, and the non-conjugacy detector."""

    name = "dynamics"
    kinds = ("rotation", "knots", "solve", "detect_theta", "detect_standard")
    tail_percentile = 95
    trace_rounds = 12
    ROTATION_ITERATES = 2000
    KNOT_ITERATES = 5000
    SOLVE = {"grid_step": 1e-2, "window": 3.0, "tol": 1e-8}
    SUP_TOL = 1e-4               # |phi - psi| on the 0.01 grid, interpolation included

    def make_rotation(self):
        rng = self.rng
        q = rng.randint(2, 7)
        return (Fraction(rng.randint(1, q - 1), q), rng.uniform(0.005, 0.03),
                rng.random(), rng.random())

    def run_rotation(self, params):
        tau, amplitude, phase, x0 = params
        lib = self.lib
        psi = phase_lift(lib, amplitude, phase)
        lift = lib.circle.MonotoneRealMap(
            lib.maps.compose(lib.maps.invert(psi), lib.maps.AffineMap(1, tau), psi), 1)
        return lib.circle.translation_number_estimate(lift, x0, self.ROTATION_ITERATES)

    def check_rotation(self, params, est):
        checks.check_translation(est.estimate, self.ROTATION_ITERATES, params[0])

    def make_knots(self):
        rng = self.rng
        d = rng.randint(2, 5)
        atoms = sorted(Fraction(k, 240) for k in rng.sample(range(240), d))
        return atoms, rng.randint(1, d), rng.randint(1, d)

    def run_knots(self, params):
        atoms, j1, j2 = params
        lib = self.lib
        d = len(atoms)

        def advance(j):
            # sends atom i to atom i + j, one turn further each time it wraps
            knots = [(p, atoms[(i + j) % d] + (i + j) // d) for i, p in enumerate(atoms)]
            return lib.circle.MonotoneRealMap(lib.maps.from_knots(knots, 1), 1)

        mu = lib.circle.AtomicCircleMeasure.uniform(atoms)
        f, g = advance(j1), advance(j2)
        fg = lib.circle.MonotoneRealMap(lib.maps.compose(f.tree, g.tree), 1)
        taus = [lib.circle.mean_translation_number(x, mu) for x in (f, g, fg)]
        est = lib.circle.translation_number_estimate(f, float(atoms[0]), self.KNOT_ITERATES)
        return taus, est

    def check_knots(self, params, output):
        atoms, j1, j2 = params
        (tau_f, tau_g, tau_fg), est = output
        d = len(atoms)
        checks.check_mean_translation(tau_f, tau_g, tau_fg, Fraction(j1, d), Fraction(j2, d))
        checks.check_translation(est.estimate, self.KNOT_ITERATES, Fraction(j1, d))

    def make_solve(self):
        rng = self.rng
        return rng.choice((2, 3)), rng.uniform(0.005, 0.02), rng.random()

    def run_solve(self, params):
        n, amplitude, phase = params
        lib = self.lib
        psi = phase_lift(lib, amplitude, phase)
        psi_inv = lib.maps.invert(psi)
        g = lib.maps.compose(psi_inv, lib.maps.AffineMap(n, 0), psi)
        h = lib.maps.compose(psi_inv, lib.maps.AffineMap(1, 1), psi)
        return psi, lib.rigidity.solve_conjugacy(g, h, n, **self.SOLVE)

    def check_solve(self, params, output):
        n = params[0]
        psi, res = output
        # phi lives in coordinates moved by the fixed point x* of g, where the
        # known conjugacy reads x -> psi(x + x*)
        inner = self.SOLVE["window"] - 0.5
        xs = [-inner + 2 * inner * i / 200 for i in range(201)]
        sup = max(abs(res.phi_at(x) - psi.eval_float(x + res.x_star)) for x in xs)
        checks.check_conjugacy(n, self.SOLVE["tol"], res.verdict, res.residual_g,
                               res.residual_h, res.contraction_ratios, sup, self.SUP_TOL)

    def make_detect_theta(self):
        rng = self.rng
        return rng.randint(2, 4), rng.choice((Fraction(1, 10), Fraction(1, 8), Fraction(1, 6)))

    def run_detect_theta(self, params):
        n, a = params
        lib = self.lib
        return lib.rigidity.detect_nonstandard(lib.maps.build_theta(n, a),
                                               lib.maps.AffineMap(1, 1), n)

    def check_detect_theta(self, params, report):
        checks.check_classification(report["classification"], "not_conjugate_to_standard")

    def make_detect_standard(self):
        return self.rng.randint(2, 4)

    def run_detect_standard(self, n):
        lib = self.lib
        return lib.rigidity.detect_nonstandard(lib.maps.AffineMap(n, 0),
                                               lib.maps.AffineMap(1, 1), n)

    def check_detect_standard(self, n, report):
        checks.check_classification(report["classification"], "consistent_with_standard")


WORKLOADS = {w.name: w for w in (Sweep, Queries, Dynamics)}


def canary(lib, span) -> None:
    """One tiny fixed call into every traced layer, checked.

    A traced run makes these calls after its set-up, so every layer reports
    measured figures on every workload; on a workload that does not use a
    layer, the layer's figures are the canary's alone."""
    act = lib.action.build_action(1, 2, A)
    require(lib.action.verify_inclusions(act).verified, "canary: BS(1,2) table")
    lib.maps.fourier_smooth(lib.maps.build_theta(2, A), 2, 4)
    summary = lib.action.sweep_certify(act, 1, 1)
    checks.check_sweep(1, 2, 1, 1, summary.counts_by_syllables, summary.inconclusive,
                       summary.nontrivial)
    word = lib.words.BSWord(1, 2, (('t', 1), ('a', 1)))
    cert = lib.action.certify_word(act, word)
    checks.check_certificate(1, 2, A, Fraction(3, 4), cert.verdict,
                             cert.final_enclosure.lo, cert.final_enclosure.hi)
    padded = lib.words.BSWord(1, 2, (('t', 1), ('a', 1), ('t', -1), ('a', -2), ('t', 1), ('a', 1)))
    checks.check_answer("canary equality", lib.words.equal(padded, word), True)
    P = lib.presentations
    with span("presentations.relation_check"):
        same = P.aut_equal(P.commutator(P.aut_A(3, 1, 2), P.aut_A(3, 2, 3)),
                           P.aut_A(3, 1, 3).inverse())
    checks.check_answer("canary Aut(F_3) relation", same, True)
    psi = lib.maps.sine_lift("1/100")
    x = lib.maps.invert(psi).eval_float(0.25)
    require(abs(psi.eval_float(x) - 0.25) < 1e-12, "canary: trig inverse")
    est = lib.circle.translation_number_estimate(lib.circle.rigid_rotation(Fraction(1, 3)), 0, 10)
    checks.check_translation(est.estimate, 10, Fraction(1, 3))
    atoms = [Fraction(1, 4), Fraction(3, 4)]
    swap = lib.circle.MonotoneRealMap(
        lib.maps.from_knots([(atoms[0], atoms[1]), (atoms[1], atoms[0] + 1)], 1), 1)
    tau = lib.circle.mean_translation_number(swap, lib.circle.AtomicCircleMeasure.uniform(atoms))
    checks.check_mean_translation(tau, tau, 2 * tau, Fraction(1, 2), Fraction(1, 2))
    g0, h0 = lib.maps.AffineMap(2, 0), lib.maps.AffineMap(1, 1)
    res = lib.rigidity.solve_conjugacy(g0, h0, 2, grid_step=0.1, window=1.0)
    require(res.verdict == "converged", f"canary: standard action verdict {res.verdict}")
    report = lib.rigidity.detect_nonstandard(g0, h0, 2, samples=101)
    checks.check_classification(report["classification"], "consistent_with_standard")
