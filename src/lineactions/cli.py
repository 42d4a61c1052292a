"""Single entry point exposing every operation as a subcommand.

Exit codes: 0 success, 2 precondition error, 3 inconclusive rigor,
4 property violation.  Rationals travel as "p/q" strings; reports are JSON
with stable field order.  Pass --manifest-dir to append a run manifest
(parameters, input hashes, outputs, wall time) to manifest.jsonl there.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .action import (BSAction, build_action, certify_word, find_g_fixed_point,
                     rotation_obstruction, sweep_certify, verify_inclusions)
from .circle import (AtomicCircleMeasure, MonotoneRealMap, SampledIntervalMap,
                     audit_aba, audit_commuting_fixsets,
                     mean_translation_number, translation_number_estimate)
from .errors import (InconclusiveError, LineActionsError, PreconditionError,
                     PropertyViolationError)
from .maps import from_spec, rat, rat_str, read_field
from .presentations import (CommGraph, PresentationSchema, braid_conjugator,
                            mc_schema, pin_commutator_convention,
                            twisted_generators, verify_autfn_relations)
from .rigidity import detect_nonstandard, solve_conjugacy
from .serialization import (RunManifest, append_manifest, emit_json,
                            file_sha256, load_json, load_map, read_csv_pairs)
from .words import (BSWord, bs1n_affine, enumerate_reduced, equal, is_trivial,
                    obstruction_commutator, reduce)

LETTER_CONVENTION = ("stable letter t and base letter a with the relation "
                     "t a^m t^-1 = a^n; a word's leftmost syllable acts last")


# ---------------------------------------------------------------------------
# action file round-trip


def action_to_file(act: BSAction, path):
    emit_json(act.to_json(), path)


def action_from_file(path) -> BSAction:
    return BSAction.from_json(load_json(path))


def _flag(args, name: str, parse=rat, count: int = 0):
    """parse(args.<name>), or the list of its count comma-separated values
    parsed: the one reading of a number flag; a malformed value raises
    PreconditionError naming the flag."""
    value = getattr(args, name)
    try:
        if not count:
            return parse(value)
        values = [parse(v) for v in value.split(",")]
        if len(values) == count:
            return values
        raise ValueError(f"expected {count} comma-separated values")
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise PreconditionError(f"bad --{name} {value!r} ({exc})") from None


def load_interval_map(path) -> SampledIntervalMap:
    xs, ys = read_csv_pairs(path)
    return SampledIntervalMap([float(x) for x in xs], [float(y) for y in ys],
                              label=str(path))


# ---------------------------------------------------------------------------
# pipelines


def pipeline_faithfulness(act: BSAction, max_syllables: int, exponent_bound: int,
                          x0=Fraction(3, 4)) -> dict:
    """Certify every pinch-free word in the box; nonzero inconclusive fails.

    Refuses to run unless the action carries a verified ping-pong table.  The
    engine is the collapsed-state sweep, whose per-syllable word counts must
    agree with the independent transfer-matrix count.  The arithmetic follows
    the action: exact rationals for a piecewise action, outward-rounded
    floats for a Fourier-smoothed one.
    """
    if act.table is None or not act.table.verified:
        raise PreconditionError(
            "no verified ping-pong table: run verify-inclusions first")
    t0 = time.time()
    sweep = sweep_certify(act, max_syllables, exponent_bound, x0)
    if not sweep.counts_match():
        raise PropertyViolationError(
            "sweep word counts disagree with the transfer-matrix oracle")
    summary = {"engine": "collapsed-state sweep", **sweep.to_json(),
               "elapsed_s": round(time.time() - t0, 3)}
    if sweep.inconclusive:
        raise PropertyViolationError(
            f"{sweep.inconclusive} words inconclusive; pipeline fails")
    return summary


def pipeline_bs12_oracle(max_letters: int, random_pairs: int = 20000,
                         pair_radius: int = 4, seed: int = 0) -> dict:
    """Exhaustive agreement check between the rewriting word problem and the
    faithful affine model of BS(1, 2).

    Runs four parts: (a) triviality vs identity map over every letter string
    of length <= max_letters; (b) equal() against an affine-class
    representative for every word; (c) exhaustive equal() over all pairs of
    words of length <= pair_radius; (d) seeded random pairs at full radius.
    Any disagreement is reported with its witness.
    """
    t0 = time.time()
    letters = [('t', 1), ('t', -1), ('a', 1), ('a', -1)]
    seen = {}
    order = []
    total_strings = 0
    for length in range(max_letters + 1):
        for combo in itertools.product(letters, repeat=length):
            total_strings += 1
            w = BSWord(1, 2, combo)
            if w.syllables not in seen:
                seen[w.syllables] = w
                order.append(w)
    # t-syllables carry exponent +-1, so a word has sum |exponent| letters
    short_words = [w for w in order if sum(abs(e) for _, e in w.syllables) <= pair_radius]

    disagreements = []
    classes: dict[tuple, BSWord] = {}
    for w in order:
        aff = bs1n_affine(2, w)
        triv = is_trivial(w)
        if triv != (aff == (1, 0)):
            disagreements.append({"part": "triviality", "word": str(w),
                                  "affine": [rat_str(aff[0]), rat_str(aff[1])],
                                  "is_trivial": triv})
        rep = classes.setdefault(aff, w)
        if rep is not w and not equal(w, rep):
            disagreements.append({"part": "class-representative", "word": str(w),
                                  "representative": str(rep)})

    pair_checks = 0
    for w1, w2 in itertools.combinations(short_words, 2):
        pair_checks += 1
        same = bs1n_affine(2, w1) == bs1n_affine(2, w2)
        if equal(w1, w2) != same:
            disagreements.append({"part": "exhaustive-pairs",
                                  "w1": str(w1), "w2": str(w2)})

    rng = random.Random(seed)
    for _ in range(random_pairs):
        w1, w2 = rng.choice(order), rng.choice(order)
        same = bs1n_affine(2, w1) == bs1n_affine(2, w2)
        if equal(w1, w2) != same:
            disagreements.append({"part": "random-pairs",
                                  "w1": str(w1), "w2": str(w2)})

    return {"max_letters": max_letters, "letter_strings": total_strings,
            "distinct_words": len(order), "affine_classes": len(classes),
            "exhaustive_pair_checks": pair_checks,
            "random_pair_checks": random_pairs, "seed": seed,
            "disagreements": disagreements[:50],
            "disagreement_count": len(disagreements),
            "passed": not disagreements,
            "elapsed_s": round(time.time() - t0, 3)}


# ---------------------------------------------------------------------------
# argument plumbing


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lineactions", allow_abbrev=False,
        description="Constructive toolkit for group actions on the line and "
                    "circle. Word convention: " + LETTER_CONVENTION + ".")
    p.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report JSON here instead of stdout")
    common.add_argument("--manifest-dir", help="append a run manifest to this directory")
    subparsers = p.add_subparsers(dest="command", required=True)

    def add_command(name, **kw):
        kw.setdefault("parents", [common])
        return subparsers.add_parser(name, **kw)

    q = add_command("rotnum", help="translation-number estimate of a degree-1 lift")
    q.add_argument("--map", required=True, help="JSON map spec or CSV grid")
    q.add_argument("--x0", default="0")
    q.add_argument("--iters", type=int, default=10**6)
    q.add_argument("--richardson", action="store_true",
                   help="also report the (non-rigorous) extrapolated estimate")

    q = add_command("meantrans", help="mean translation number for an atomic measure")
    q.add_argument("--map", required=True)
    q.add_argument("--measure", required=True, help="JSON atom list with rational weights")
    q.add_argument("--x", default=None)

    q = add_command("audit-commute", help="fixed-set audit for commuting interval maps")
    q.add_argument("--f", required=True, help="CSV samples of f on [0,1]")
    q.add_argument("--g", required=True)
    q.add_argument("--tol", type=float, default=1e-9)

    q = add_command("audit-aba", help="aba-relation fixed-interval dichotomy audit")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--exponents", required=True, help="n1,m3,n2,m1,n3,m2")
    q.add_argument("--interval", required=True, help="lo,hi inside [0,1]")
    q.add_argument("--tol", type=float, default=1e-9)

    q = add_command("words", help="BS(m,n) word operations")
    q.add_argument("action", choices=["reduce", "is-trivial", "equal",
                                      "enumerate", "obstruction"])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--word")
    q.add_argument("--word2")
    q.add_argument("--trace", action="store_true")
    q.add_argument("--max-syllables", type=int, default=2)
    q.add_argument("--exponent-bound", type=int, default=2)
    q.add_argument("--limit", type=int, default=1000)
    q.add_argument("--p", type=int)
    q.add_argument("--q", type=int, default=1)

    q = add_command("bs", help="the explicit BS(m,n) action on the line")
    q.add_argument("action", choices=["construct", "verify-inclusions",
                                      "certify", "obstruct", "fixed-point"])
    q.add_argument("file", nargs="?", help="action JSON file")
    q.add_argument("--m", type=int)
    q.add_argument("--n", type=int)
    q.add_argument("--a", default="1/10")
    q.add_argument("--fourier-harmonics", type=int, default=None)
    q.add_argument("--word")
    q.add_argument("--x0", default="3/4")
    q.add_argument("--search-bound", type=int, default=60)

    q = add_command("presentations", help="schemas, relation sweeps, graphs")
    q.add_argument("action", choices=["mc", "autfn-verify", "commgraph",
                                      "braid-conjugator", "twisted",
                                      "pin-convention"])
    q.add_argument("file", nargs="?", help="schema JSON file")
    q.add_argument("--n", type=int)
    q.add_argument("--emit", help="write the schema here")
    q.add_argument("--subset-prefix", help="restrict the graph to labels with this prefix")
    q.add_argument("--x")
    q.add_argument("--y")

    q = add_command("rigidity", help="conjugacy solver and non-conjugacy detector")
    q.add_argument("action", choices=["solve", "detect"])
    q.add_argument("--action", "--action-file", required=True, dest="action_file",
                   help='JSON {"n": .., "g": spec, "h": spec}')
    q.add_argument("--n", type=int)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--window", type=float, default=10.0)
    q.add_argument("--grid-step", type=float, default=1e-3)
    q.add_argument("--max-iters", type=int, default=200)
    q.add_argument("--phi-csv", help="write the sampled conjugacy here")

    q = add_command("pipeline", help="end-to-end acceptance pipelines")
    q.add_argument("action", choices=["faithfulness", "bs12-oracle"])
    q.add_argument("--action", "--action-file", dest="action_file")
    q.add_argument("--max-syllables", type=int, default=6)
    q.add_argument("--exponent-bound", type=int, default=4)
    q.add_argument("--x0", default="3/4")
    q.add_argument("--max-letters", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    return p


def _dispatch(args) -> tuple[dict, int]:
    cmd = args.command
    if cmd == "rotnum":
        tree = load_map(args.map)
        lift = MonotoneRealMap(tree, tree.shift_image(1))  # the degree the tree proves
        # the orbit runs in floats: an x0 past the float range is malformed
        x0 = _flag(args, "x0", lambda v: float(rat(v)))
        est = translation_number_estimate(lift, x0, args.iters,
                                          richardson=args.richardson)
        return {"subcommand": "rotnum", **est.to_json()}, 0

    if cmd == "meantrans":
        lift = MonotoneRealMap(load_map(args.map), 1)
        mu = AtomicCircleMeasure(read_field(load_json(args.measure), "atoms",
                                            lambda atoms: [(rat(a), rat(w)) for a, w in atoms]))
        value = mean_translation_number(lift, mu, None if args.x is None else _flag(args, "x"))
        return {"subcommand": "meantrans", "tau_mu": rat_str(value)}, 0

    if cmd == "audit-commute":
        report = audit_commuting_fixsets(load_interval_map(args.f),
                                         load_interval_map(args.g), args.tol)
        code = 0 if report.verdict == "consistent" else 4
        return {"subcommand": "audit-commute", **report.to_json()}, code

    if cmd == "audit-aba":
        expo = tuple(_flag(args, "exponents", int, 6))
        interval = _flag(args, "interval", lambda v: float(rat(v)), 2)
        report = audit_aba(load_interval_map(args.a), load_interval_map(args.b),
                           expo, interval, args.tol)
        code = 0 if report.verdict != "violation" else 4
        return {"subcommand": "audit-aba", **report.to_json()}, code

    if cmd == "words":
        return _words_cmd(args)

    if cmd == "bs":
        return _bs_cmd(args)

    if cmd == "presentations":
        return _presentations_cmd(args)

    if cmd == "rigidity":
        return _rigidity_cmd(args)

    if cmd == "pipeline":
        if args.action == "faithfulness":
            if not args.action_file:
                raise PreconditionError("--action-file is required")
            act = action_from_file(args.action_file)
            summary = pipeline_faithfulness(act, args.max_syllables,
                                            args.exponent_bound, _flag(args, "x0"))
            return {"subcommand": "pipeline faithfulness", **summary}, 0
        summary = pipeline_bs12_oracle(args.max_letters, seed=args.seed)
        return ({"subcommand": "pipeline bs12-oracle", **summary},
                0 if summary["passed"] else 4)

    raise PreconditionError(f"unknown command {cmd}")


def _words_cmd(args) -> tuple[dict, int]:
    m, n = args.m, args.n
    if args.action == "reduce":
        w = BSWord.parse(m, n, args.word)
        if args.trace:
            nf, steps = reduce(w, trace=True)
            return {"subcommand": "words reduce", "input": str(w),
                    "normal_form": str(nf), "pinch_free": True,
                    "steps": steps}, 0
        return {"subcommand": "words reduce", "input": str(w),
                "normal_form": str(reduce(w))}, 0
    if args.action == "is-trivial":
        w = BSWord.parse(m, n, args.word)
        return {"subcommand": "words is-trivial", "word": str(w),
                "trivial": is_trivial(w)}, 0
    if args.action == "equal":
        w1, w2 = BSWord.parse(m, n, args.word), BSWord.parse(m, n, args.word2)
        return {"subcommand": "words equal", "w1": str(w1), "w2": str(w2),
                "equal": equal(w1, w2)}, 0
    if args.action == "enumerate":
        out = []
        for nf in enumerate_reduced(m, n, args.max_syllables, args.exponent_bound):
            out.append(str(nf))
            if len(out) >= args.limit:
                break
        return {"subcommand": "words enumerate", "count_emitted": len(out),
                "truncated_at": args.limit, "words": out}, 0
    if args.action == "obstruction":
        word, cert = obstruction_commutator(m, n, args.p, args.q)
        return {"subcommand": "words obstruction", **cert}, 0
    raise PreconditionError(f"unknown words action {args.action}")


def _bs_cmd(args) -> tuple[dict, int]:
    if args.action == "construct":
        act = build_action(args.m, args.n, _flag(args, "a"),
                           fourier_harmonics=args.fourier_harmonics)
        # the report IS the action file: `--out action.json` stores it
        report = {"subcommand": "bs construct",
                  "relation_residual_float": repr(act.relation_residual())}
        report.update(act.to_json())
        if args.file:  # positional destination also accepted
            action_to_file(act, args.file)
            report["written"] = str(args.file)
        return report, 0
    if args.action == "obstruct":
        res = rotation_obstruction(args.m, args.n)
        return {"subcommand": "bs obstruct", "m": args.m, "n": args.n,
                "admissible_rotation_numbers": [rat_str(v) for v in res["admissible"]],
                "period_divisor": res["period_divisor"]}, 0
    if not args.file:
        raise PreconditionError("this bs action needs an action JSON file")
    act = action_from_file(args.file)
    if args.action == "verify-inclusions":
        table = act.table or verify_inclusions(act)  # loading verified a stored table
        action_to_file(act, args.file)
        verdicts = {f["verdict"] for f in table.facts}
        code = 0 if table.verified else (3 if "Inconclusive" in verdicts else 4)
        return {"subcommand": "bs verify-inclusions", "verified": table.verified,
                **table.to_json()}, code
    if args.action == "certify":
        w = BSWord.parse(act.m, act.n, args.word)
        nf = reduce(w)
        cert = certify_word(act, nf, _flag(args, "x0"))
        code = 0 if cert.verdict == "nontrivial" else 3
        return {"subcommand": "bs certify", **cert.to_json()}, code
    if args.action == "fixed-point":
        res = find_g_fixed_point(act.g, act.m, args.search_bound)
        return {"subcommand": "bs fixed-point", **res}, 0
    raise PreconditionError(f"unknown bs action {args.action}")


def _presentations_cmd(args) -> tuple[dict, int]:
    if args.action == "pin-convention":
        return {"subcommand": "presentations pin-convention",
                **pin_commutator_convention()}, 0
    if args.action == "mc":
        schema = mc_schema(args.n)
        if args.emit:
            emit_json(schema.to_json(), args.emit)
        return {"subcommand": "presentations mc", **schema.to_json()}, 0
    if args.action == "autfn-verify":
        report = verify_autfn_relations(args.n)
        code = 0 if report["total_failures"] == 0 else 4
        return {"subcommand": "presentations autfn-verify", **report}, code
    if not args.file:
        raise PreconditionError("this presentations action needs a schema file")
    schema = PresentationSchema.from_json(load_json(args.file))
    if args.action == "commgraph":
        subset = None
        if args.subset_prefix:
            subset = [g for g in schema.generators
                      if g.startswith(args.subset_prefix)]
        graph = CommGraph.from_schema(schema, subset)
        connected, comps = graph.is_connected()
        return {"subcommand": "presentations commgraph", "schema": schema.name,
                "vertices": len(graph.vertices), "edges": len(graph.edges),
                "connected": connected, "components": comps}, 0
    if args.action == "braid-conjugator":
        return {"subcommand": "presentations braid-conjugator",
                **braid_conjugator(schema, args.x, args.y)}, 0
    if args.action == "twisted":
        out = twisted_generators(schema)
        if args.emit:
            emit_json(out.to_json(), args.emit)
        return {"subcommand": "presentations twisted", **out.to_json()}, 0
    raise PreconditionError(f"unknown presentations action {args.action}")


def _rigidity_cmd(args) -> tuple[dict, int]:
    data = load_json(args.action_file)
    n = args.n or read_field(data, "n", int)
    g, h = read_field(data, "g", from_spec), read_field(data, "h", from_spec)
    if args.action == "solve":
        res = solve_conjugacy(g, h, n, grid_step=args.grid_step,
                              window=args.window, tol=args.tol,
                              max_iters=args.max_iters)
        if args.phi_csv:
            Path(args.phi_csv).write_text(res.phi_csv())
        code = {"converged": 0, "diverged": 3, "not-conjugate-detected": 0}[res.verdict]
        out = {"subcommand": "rigidity solve", **res.to_json()}
        if args.phi_csv:
            out["phi_csv"] = str(args.phi_csv)
        return out, code
    report = detect_nonstandard(g, h, n, window=args.window)
    return {"subcommand": "rigidity detect", **report}, 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.time()
    try:
        report, code = _dispatch(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 4
    except LineActionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_json(report, args.out)
    if args.out is None:
        print(text)
    if args.manifest_dir:
        manifest = RunManifest(
            subcommand=args.command,
            parameters={k: v for k, v in vars(args).items()
                        if k not in ("command",) and v is not None})
        for key in ("map", "measure", "f", "g", "a", "b", "file", "action_file"):
            path = getattr(args, key, None)
            if path and isinstance(path, str) and Path(path).exists():
                manifest.input_hashes[key] = file_sha256(path)
        for key in ("out", "emit", "phi_csv", "file"):
            path = getattr(args, key, None)
            if path and isinstance(path, str) and Path(path).exists():
                manifest.outputs.append(str(path))
        manifest.wall_time_s = time.time() - t0
        append_manifest(args.manifest_dir, manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
