"""Free-group reduced words, Aut(F_n) generator automorphisms, and
presentation schemas with commutativity-graph analysis.

The generators A_ij (e_i -> e_i e_j) and B_ij (e_i -> e_j e_i) satisfy,
with composition (f g)(w) = f(g(w)) and the commutator [x, y] = x^-1 y^-1 x y,
the relation families: disjoint-support commuting, [A_ij, A_jk] = A_ik^-1,
[A_ij, A_jk^-1] = A_ik (same for B), and the braid identity between A_ij and
A_ji^-1.  The commutator convention is pinned by pin_commutator_convention,
which derives it rather than assuming it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import PreconditionError
from .maps import read_field

FreeWord = tuple[int, ...]  # nonzero indices; -i is the inverse of e_i


def free_reduce(letters: Sequence[int]) -> FreeWord:
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise PreconditionError("0 is not a generator index")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_mul(a: Sequence[int], b: Sequence[int]) -> FreeWord:
    return free_reduce(tuple(a) + tuple(b))


def free_inv(a: Sequence[int]) -> FreeWord:
    return tuple(-x for x in reversed(a))


def word_str(w: FreeWord) -> str:
    if not w:
        return "1"
    return " ".join(f"e{abs(x)}" if x > 0 else f"e{abs(x)}^-1" for x in w)


@dataclass(frozen=True)
class FreeAutomorphism:
    """Automorphism of F_n given by reduced images of the basis.

    inverse_images is carried when the automorphism was assembled from the
    named generators, witnessing invertibility.
    """

    rank: int
    images: tuple[FreeWord, ...]
    inverse_images: Optional[tuple[FreeWord, ...]] = None

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise PreconditionError("need one image per basis letter")
        object.__setattr__(self, "images",
                           tuple(free_reduce(w) for w in self.images))
        if self.inverse_images is not None:
            object.__setattr__(self, "inverse_images",
                               tuple(free_reduce(w) for w in self.inverse_images))

    def apply(self, w: Sequence[int]) -> FreeWord:
        out: list[int] = []
        for letter in w:
            image = self.images[abs(letter) - 1]
            out.extend(image if letter > 0 else free_inv(image))
        return free_reduce(out)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """(self o other)(w) = self(other(w))."""
        if self.rank != other.rank:
            raise PreconditionError(
                f"rank mismatch: {self.rank} vs {other.rank}")
        images = tuple(self.apply(im) for im in other.images)
        inverse = None
        if self.inverse_images is not None and other.inverse_images is not None:
            other_inv = FreeAutomorphism(other.rank, other.inverse_images)
            inverse = tuple(other_inv.apply(im) for im in self.inverse_images)
        return FreeAutomorphism(self.rank, images, inverse)

    def inverse(self) -> "FreeAutomorphism":
        if self.inverse_images is None:
            raise PreconditionError("no inverse witness carried")
        return FreeAutomorphism(self.rank, self.inverse_images, self.images)

    def __eq__(self, other):
        return (isinstance(other, FreeAutomorphism)
                and self.rank == other.rank and self.images == other.images)

    def __hash__(self):
        return hash((self.rank, self.images))


def identity_aut(n: int) -> FreeAutomorphism:
    images = tuple((i,) for i in range(1, n + 1))
    return FreeAutomorphism(n, images, images)


def aut_A(n: int, i: int, j: int) -> FreeAutomorphism:
    """A_ij: e_i -> e_i e_j, fixing the other basis letters."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise PreconditionError(f"bad indices ({i}, {j}) for rank {n}")
    images = [(k,) for k in range(1, n + 1)]
    inv = [(k,) for k in range(1, n + 1)]
    images[i - 1] = (i, j)
    inv[i - 1] = (i, -j)
    return FreeAutomorphism(n, tuple(images), tuple(inv))


def aut_B(n: int, i: int, j: int) -> FreeAutomorphism:
    """B_ij: e_i -> e_j e_i, fixing the other basis letters."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise PreconditionError(f"bad indices ({i}, {j}) for rank {n}")
    images = [(k,) for k in range(1, n + 1)]
    inv = [(k,) for k in range(1, n + 1)]
    images[i - 1] = (j, i)
    inv[i - 1] = (-j, i)
    return FreeAutomorphism(n, tuple(images), tuple(inv))


def aut_equal(f: FreeAutomorphism, g: FreeAutomorphism) -> bool:
    if f.rank != g.rank:
        raise PreconditionError("rank mismatch")
    return f.images == g.images


def commutator(x: FreeAutomorphism, y: FreeAutomorphism,
               convention: str = "inverse-first") -> FreeAutomorphism:
    """[x, y] under the chosen convention; composition is (f g)(w) = f(g(w))."""
    if convention == "inverse-first":     # x^-1 y^-1 x y
        return x.inverse().compose(y.inverse()).compose(x).compose(y)
    if convention == "plain-first":       # x y x^-1 y^-1
        return x.compose(y).compose(x.inverse()).compose(y.inverse())
    raise PreconditionError(f"unknown convention {convention!r}")


def pin_commutator_convention() -> dict:
    """One-time derivation: which convention satisfies [A_12, A_23] = A_13^-1
    on the rank-3 basis.  Exactly one must; it is pinned for all reports."""
    a12, a23, a13 = aut_A(3, 1, 2), aut_A(3, 2, 3), aut_A(3, 1, 3)
    results = {}
    for conv in ("inverse-first", "plain-first"):
        comm = commutator(a12, a23, conv)
        results[conv] = {
            "equals_A13_inverse": aut_equal(comm, a13.inverse()),
            "equals_A13": aut_equal(comm, a13),
            "image_of_e1": word_str(comm.images[0]),
        }
    winners = [c for c, r in results.items() if r["equals_A13_inverse"]]
    if len(winners) != 1:
        raise PreconditionError(f"convention derivation is ambiguous: {results}")
    return {"convention": winners[0], "composition": "(f g)(w) = f(g(w))",
            "evidence": results}


PINNED_CONVENTION = "inverse-first"


def verify_autfn_relations(n: int) -> dict:
    """Sweep every index tuple of the four relation families at rank n.

    Failures are report content, not exceptions.  Disjoint-support instances
    need n >= 4 and are vacuous below that.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    conv = PINNED_CONVENTION
    report = {"n": n, "convention": conv,
              "composition": "(f g)(w) = f(g(w))",
              "families": {}, "total_failures": 0}

    def run(name, instances):
        count, failures = 0, []
        for desc, ok in instances:
            count += 1
            if not ok:
                failures.append(desc)
        report["families"][name] = {"instances": count, "failures": failures}
        report["total_failures"] += len(failures)

    idx = range(1, n + 1)

    def disjoint_pairs():
        pairs = [(i, j) for i in idx for j in idx if i != j]
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            if {i, j} & {k, l}:
                continue
            for fam, gen in (("A", aut_A), ("B", aut_B)):
                x, y = gen(n, i, j), gen(n, k, l)
                yield (f"{fam}_{i}{j} vs {fam}_{k}{l}",
                       aut_equal(x.compose(y), y.compose(x)))

    run("i_disjoint_commuting", disjoint_pairs())

    def commutator_identities(gen, fam):
        for i, j, k in itertools.permutations(idx, 3):
            xij, xjk, xik = gen(n, i, j), gen(n, j, k), gen(n, i, k)
            yield (f"[{fam}_{i}{j}, {fam}_{j}{k}] = {fam}_{i}{k}^-1",
                   aut_equal(commutator(xij, xjk, conv), xik.inverse()))
            yield (f"[{fam}_{i}{j}, {fam}_{j}{k}^-1] = {fam}_{i}{k}",
                   aut_equal(commutator(xij, xjk.inverse(), conv), xik))

    run("ii_A_commutator", commutator_identities(aut_A, "A"))
    run("iii_B_commutator", commutator_identities(aut_B, "B"))

    def braids():
        for i, j in itertools.permutations(idx, 2):
            for fam, gen in (("A", aut_A), ("B", aut_B)):
                x = gen(n, i, j)
                y_inv = gen(n, j, i).inverse()
                lhs = x.compose(y_inv).compose(x)
                rhs = y_inv.compose(x).compose(y_inv)
                yield (f"{fam}_{i}{j} {fam}_{j}{i}^-1 braid", aut_equal(lhs, rhs))

    run("iv_braid", braids())
    return report


# ---------------------------------------------------------------------------
# presentation schemas


@dataclass
class PresentationSchema:
    """Generator labels plus relations tagged commuting / braid / commutator.

    Commuting pairs and braid pairs are disjoint sets of unordered pairs over
    declared labels; commutator identities are (x, y, target, exponent)
    meaning [x, y] = target^exponent.
    """

    name: str
    generators: list[str]
    commuting: list[tuple[str, str]] = field(default_factory=list)
    braid: list[tuple[str, str]] = field(default_factory=list)
    commutator_identities: list[tuple[str, str, str, int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PreconditionError("generator labels must be distinct")
        declared = set(self.generators)
        self.commuting = [tuple(sorted(p)) for p in self.commuting]
        self.braid = [tuple(sorted(p)) for p in self.braid]
        for x, y in self.commuting + self.braid:
            if x == y or x not in declared or y not in declared:
                raise PreconditionError(f"relation references unknown labels ({x}, {y})")
        overlap = set(self.commuting) & set(self.braid)
        if overlap:
            raise PreconditionError(f"pairs tagged both commuting and braid: {overlap}")
        for x, y, t, e in self.commutator_identities:
            if {x, y, t} - declared or e not in (1, -1):
                raise PreconditionError("bad commutator identity")

    def is_braid_pair(self, x: str, y: str) -> bool:
        return tuple(sorted((x, y))) in self.braid

    def to_json(self) -> dict:
        return {"name": self.name, "generators": self.generators,
                "commuting": [list(p) for p in self.commuting],
                "braid": [list(p) for p in self.braid],
                "commutator_identities": [list(c) for c in self.commutator_identities],
                "notes": self.notes}

    @staticmethod
    def from_json(data: dict) -> "PresentationSchema":
        """The schema to_json wrote; a missing or malformed field raises
        PreconditionError naming it."""
        return PresentationSchema(
            read_field(data, "name", str), read_field(data, "generators", _labels),
            read_field(data, "commuting", _pairs, []), read_field(data, "braid", _pairs, []),
            read_field(data, "commutator_identities",
                       lambda rows: [(*_labels([x, y, t]), int(e)) for x, y, t, e in rows], []),
            read_field(data, "notes", _labels, []))


def _labels(values) -> list:
    """A JSON list of strings; a bare string is not read as its letters."""
    if isinstance(values, str) or not all(isinstance(v, str) for v in values):
        raise TypeError("expected a list of strings")
    return list(values)


def _pairs(rows) -> list:
    return [(x, y) for x, y in map(_labels, rows)]


def mc_schema(n: int) -> PresentationSchema:
    """The MC(n) generating schema: a_i, b_i (i <= n) and c_j (j <= n-1).

    Commuting: all (a_i, a_j), (b_i, b_j), (c_i, c_j), (a_i, c_j); (a_i, b_j)
    for i != j; (b_i, c_j) for j not in {i, i-1}.  Braid: (a_i, b_i) and
    (b_i, c_j) for j in {i, i-1}.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    a = [f"a_{i}" for i in range(1, n + 1)]
    b = [f"b_{i}" for i in range(1, n + 1)]
    c = [f"c_{j}" for j in range(1, n)]
    commuting, braid = [], []
    for x, y in itertools.combinations(a, 2):
        commuting.append((x, y))
    for x, y in itertools.combinations(b, 2):
        commuting.append((x, y))
    for x, y in itertools.combinations(c, 2):
        commuting.append((x, y))
    for x in a:
        for y in c:
            commuting.append((x, y))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                commuting.append((f"a_{i}", f"b_{j}"))
    for i in range(1, n + 1):
        braid.append((f"a_{i}", f"b_{i}"))
        for j in range(1, n):
            if j in (i, i - 1):
                braid.append((f"b_{i}", f"c_{j}"))
            else:
                commuting.append((f"b_{i}", f"c_{j}"))
    commuting = sorted(set(tuple(sorted(p)) for p in commuting))
    return PresentationSchema(f"MC({n})", a + b + c, commuting, braid)


def twisted_generators(schema: PresentationSchema) -> PresentationSchema:
    """Derived circle-case generators: each original generator is multiplied
    by a central twisting element, so A_i = a_i u, B_i = b_i u, C_j = c_j u
    for i <= n-1, j <= n-2 inherit exactly the MC(n-1) relation pattern.

    In particular (B_i, C_j) commute iff (b_i, c_j) do, i.e. iff
    j not in {i, i-1}; centrality of u forces this and rules out any other
    commuting pattern.
    """
    if not schema.name.startswith("MC("):
        raise PreconditionError("twisted generators are derived from an MC(n) schema")
    n = int(schema.name[3:-1])
    if n < 3:
        raise PreconditionError("need n >= 3 so the derived schema is MC(n-1)-shaped")
    base = mc_schema(n - 1)

    def lift(label: str) -> str:
        kind, idx = label.split("_")
        return f"{kind.upper()}_{idx}"

    out = PresentationSchema(
        f"twisted({schema.name})",
        [lift(g) for g in base.generators],
        [(lift(x), lift(y)) for x, y in base.commuting],
        [(lift(x), lift(y)) for x, y in base.braid])
    out.notes.append("A_i = a_i u, B_i = b_i u, C_j = c_j u with u central "
                     "in the sub-schema; commuting pattern (B_i, C_j) iff "
                     "j not in {i, i-1} is forced by centrality")
    return out


def autfn_schema(n: int) -> PresentationSchema:
    """Schema for the A_ij/B_ij generators: commuting edges from disjoint
    supports, braid pairs (X_ij, X_ji), commutator identities from the
    triple relations."""
    labels = ([f"A_{i}_{j}" for i, j in itertools.permutations(range(1, n + 1), 2)]
              + [f"B_{i}_{j}" for i, j in itertools.permutations(range(1, n + 1), 2)])
    commuting, braid, comms = [], [], []
    for fam in ("A", "B"):
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            if not ({i, j} & {k, l}):
                commuting.append((f"{fam}_{i}_{j}", f"{fam}_{k}_{l}"))
        for i, j in itertools.combinations(range(1, n + 1), 2):
            braid.append((f"{fam}_{i}_{j}", f"{fam}_{j}_{i}"))
        for i, j, k in itertools.permutations(range(1, n + 1), 3):
            comms.append((f"{fam}_{i}_{j}", f"{fam}_{j}_{k}", f"{fam}_{i}_{k}", -1))
    return PresentationSchema(f"AutF({n})", labels, commuting, braid, comms)


# ---------------------------------------------------------------------------
# commutativity graphs


@dataclass
class CommGraph:
    """Graph on generator labels with edges exactly the commuting pairs."""

    vertices: list[str]
    edges: list[tuple[str, str]]

    @staticmethod
    def from_schema(schema: PresentationSchema,
                    subset: Optional[Sequence[str]] = None) -> "CommGraph":
        verts = list(subset) if subset is not None else list(schema.generators)
        vset = set(verts)
        edges = [p for p in schema.commuting if p[0] in vset and p[1] in vset]
        return CommGraph(verts, edges)

    def is_connected(self) -> tuple[bool, list[list[str]]]:
        """Breadth-first connectivity; returns (connected, components)."""
        adj = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        seen: set[str] = set()
        components = []
        for start in self.vertices:
            if start in seen:
                continue
            queue, comp = [start], []
            seen.add(start)
            while queue:
                v = queue.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            components.append(sorted(comp))
        return len(components) <= 1, components


# ---------------------------------------------------------------------------
# braid conjugation witness


def braid_conjugator(schema: PresentationSchema, x: str, y: str) -> dict:
    """The word (xy)^-1 y (xy) together with a one-substitution proof that it
    equals x modulo the braid relation x y x = y x y."""
    if x == y:
        raise PreconditionError("braid conjugation needs two distinct generators")
    if not schema.is_braid_pair(x, y):
        raise PreconditionError(f"({x}, {y}) is not a braid-tagged pair")

    word = [(y, -1), (x, -1), (y, 1), (x, 1), (y, 1)]

    def render(w):
        return " ".join(f"{g}" if e == 1 else f"{g}^-1" for g, e in w) or "1"

    trace = [{"step": "start", "word": render(word)}]
    target = [(y, 1), (x, 1), (y, 1)]
    replacement = [(x, 1), (y, 1), (x, 1)]
    pos = None
    for i in range(len(word) - 2):
        if word[i:i + 3] == target:
            pos = i
            break
    if pos is None:
        raise PreconditionError("no yxy substring; braid substitution impossible")
    word = word[:pos] + replacement + word[pos + 3:]
    trace.append({"step": f"substitute y x y -> x y x at position {pos}",
                  "word": render(word)})
    reduced: list = []
    for g, e in word:
        if reduced and reduced[-1] == (g, -e):
            reduced.pop()
        else:
            reduced.append((g, e))
    trace.append({"step": "free reduction", "word": render(reduced)})
    if reduced != [(x, 1)]:
        raise PreconditionError("braid conjugation verification failed")
    return {"pair": [x, y], "word": f"({x} {y})^-1 {y} ({x} {y})",
            "equals": x, "substitutions": 1, "trace": trace}
