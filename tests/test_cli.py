import json
from fractions import Fraction as F

import pytest

from lineactions import cli
from lineactions.action import build_action
from lineactions.errors import PreconditionError
from lineactions.maps import from_spec
from lineactions.words import BSWord, reduce as words_reduce


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def action_file(tmp_path, capsys):
    path = tmp_path / "act.json"
    code, _ = run(capsys, "bs", "construct", str(path), "--m", "2", "--n", "3")
    assert code == 0
    return path


def test_rotnum_from_json_and_csv(tmp_path, capsys):
    spec = tmp_path / "rot.json"
    spec.write_text(json.dumps({"kind": "affine", "slope": "1", "offset": "1/3"}))
    code, out = run(capsys, "rotnum", "--map", str(spec), "--iters", "900")
    assert code == 0
    assert abs(float(out["estimate"]) - 1 / 3) < 1e-12
    # the 2/N bracket assumes exact iteration, and the report says so
    assert float(out["error_bound"]) == 2 / 900
    assert out["error_bound_covers_rounding"] is False
    csv = tmp_path / "rot.csv"
    csv.write_text("0,1/4\n1/2,3/4\n1,5/4\n")
    code, out = run(capsys, "rotnum", "--map", str(csv), "--iters", "400")
    assert code == 0
    assert abs(float(out["estimate"]) - 0.25) < 1e-12



def test_rotnum_reads_the_degree_off_the_tree(tmp_path, capsys):
    # Theta_2^-1(2x) proves degree 1; Theta_2 proves 2, which rotnum refuses;
    # Theta_2 T_1/2 Theta_2^-1 proves none, although its nodes' degrees
    # multiply to 1 (F(x + 1) - F(x) is about 1.996 at x = -1)
    theta2 = {"kind": "theta", "j": 2}
    half = {"kind": "affine", "slope": "1", "offset": "1/2"}
    specs = {"halved": ({"kind": "compose", "of": [{"kind": "inverse", "of": theta2},
                                                   {"kind": "affine", "slope": "2"}]}, 0, ""),
             "theta2": (theta2, 2, "degree-1"),
             "half-turn": ({"kind": "compose", "of": [theta2, half, {"kind": "inverse",
                                                                     "of": theta2}]},
                           2, "equivariance not proved")}
    for name, (spec, want, message) in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["rotnum", "--map", str(path), "--iters", "50"]) == want
        assert message in capsys.readouterr().err

def test_meantrans_cli(tmp_path, capsys):
    spec = tmp_path / "rot.json"
    spec.write_text(json.dumps({"kind": "affine", "slope": "1", "offset": "1/2"}))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"atoms": [["0", "1/2"], ["1/2", "1/2"]]}))
    code, out = run(capsys, "meantrans", "--map", str(spec), "--measure", str(mu))
    assert code == 0 and out["tau_mu"] == "1/2"


def test_audit_commute_cli_exit_codes(tmp_path, capsys):
    n = 1001
    ok = tmp_path / "f.csv"
    ok.write_text("\n".join(f"{i/(n-1)},{(i/(n-1))**2}" for i in range(n)))
    code, out = run(capsys, "audit-commute", "--f", str(ok), "--g", str(ok),
                    "--tol", "1e-6")
    assert code == 0 and out["verdict"] == "consistent"
    moved = tmp_path / "g.csv"
    moved.write_text("\n".join(f"{i/(n-1)},{(i/(n-1))**4}" for i in range(n)))
    fixer = tmp_path / "fix.csv"
    fixer.write_text("\n".join(
        f"{x},{x + 0.05 * (x * (1 - x)) * (0.5 - x)}"
        for x in (i / (n - 1) for i in range(n))))
    code, out = run(capsys, "audit-commute", "--f", str(fixer), "--g", str(moved),
                    "--tol", "1e-7")
    assert code == 4 and out["verdict"] == "violations"


def test_words_cli(capsys):
    code, out = run(capsys, "words", "reduce", "--m", "2", "--n", "3",
                    "--word", "t a^2 t^-1", "--trace")
    assert code == 0 and out["normal_form"] == "a^3"
    assert out["steps"][0]["position"] == 0
    code, out = run(capsys, "words", "equal", "--m", "2", "--n", "3",
                    "--word", "t a^2 t^-1", "--word2", "a^3")
    assert code == 0 and out["equal"] is True
    code, out = run(capsys, "words", "enumerate", "--m", "2", "--n", "3",
                    "--max-syllables", "1", "--exponent-bound", "1")
    assert code == 0 and out["count_emitted"] == 20
    code, out = run(capsys, "words", "enumerate", "--m", "2", "--n", "3", "--limit", "0")
    assert code == 0 and out["count_emitted"] == 0 and out["words"] == []
    code, out = run(capsys, "words", "obstruction", "--m", "2", "--n", "3",
                    "--p", "5", "--q", "1")
    assert code == 0 and out["nontrivial"] is True


def test_words_cli_error_exit(capsys):
    code, _ = run(capsys, "words", "obstruction", "--m", "2", "--n", "3",
                  "--p", "6", "--q", "1")
    assert code == 2


def test_bs_action_file_roundtrip(action_file, tmp_path, capsys):
    act = cli.action_from_file(action_file)
    assert (act.m, act.n) == (2, 3)
    g_clone = from_spec(json.loads(action_file.read_text())["g_n"])
    assert g_clone.eval_float(0.3) == act.g_n.eval_float(0.3)
    smooth = tmp_path / "smooth.json"
    run(capsys, "bs", "construct", str(smooth), "--m", "2", "--n", "3",
        "--fourier-harmonics", "16")
    run(capsys, "bs", "verify-inclusions", str(smooth))
    act = cli.action_from_file(smooth)
    assert act.smoothed and act.table.mode == "float"
    built = build_action(2, 3, fourier_harmonics=16)
    assert act.g.eval_float(0.3) == built.g.eval_float(0.3)
    assert act.g_inv.eval_float(0.3) == built.g_inv.eval_float(0.3)


def test_bs_verify_and_certify(action_file, capsys):
    code, out = run(capsys, "bs", "verify-inclusions", str(action_file))
    assert code == 0 and out["verified"] is True
    data = json.loads(action_file.read_text())
    assert data["table"]["verified"] is True
    code, out = run(capsys, "bs", "certify", str(action_file),
                    "--word", "t a t^-1 a", "--x0", "3/4")
    assert code == 0 and out["verdict"] == "nontrivial"
    assert out["final_tag"] == "A^s + nZ"


def test_bs_verify_broken_parameter(tmp_path, capsys):
    path = tmp_path / "bad.json"
    code, _ = run(capsys, "bs", "construct", str(path), "--m", "2", "--n", "3",
                  "--a", "2/5")
    assert code == 0
    code, out = run(capsys, "bs", "verify-inclusions", str(path))
    assert code == 4 and out["verified"] is False


def test_pipeline_refuses_unverified(action_file, capsys):
    code, _ = run(capsys, "pipeline", "faithfulness",
                  "--action-file", str(action_file),
                  "--max-syllables", "1", "--exponent-bound", "1")
    assert code == 2


def test_stored_table_is_verified_again_on_load(action_file, capsys):
    """A file edited after verify-inclusions is not certified from its stale
    table: loading re-runs the inclusion checks on the file's maps and a."""
    run(capsys, "bs", "verify-inclusions", str(action_file))
    data = json.loads(action_file.read_text())
    stale_facts = data["table"]["facts"]
    # the a = 1/10 lifts also satisfy the inclusions for the a = 1/5 windows,
    # so the recomputed table verifies, with facts of its own
    data["a"] = "1/5"
    action_file.write_text(json.dumps(data))
    table = cli.action_from_file(action_file).table
    assert table.verified and table.facts != stale_facts
    # for the a = 1/20 windows they do not
    data["a"] = "1/20"
    action_file.write_text(json.dumps(data))
    assert not cli.action_from_file(action_file).table.verified
    code = cli.main(["pipeline", "faithfulness", "--action-file", str(action_file),
                     "--max-syllables", "2", "--exponent-bound", "2"])
    assert code == 2 and "no verified ping-pong table" in capsys.readouterr().err
    data["a"] = "1/10"
    data["table"]["facts"] = []
    action_file.write_text(json.dumps(data))
    table = cli.action_from_file(action_file).table
    assert table.verified and table.facts == stale_facts


def test_stored_smoothed_flag_must_match_the_lifts(action_file, capsys):
    """The smoothed flag is read off the lifts; a file whose stored flag says
    otherwise is rejected rather than certified in the wrong arithmetic."""
    run(capsys, "bs", "verify-inclusions", str(action_file))
    data = json.loads(action_file.read_text())
    assert data["smoothed"] is False and not cli.action_from_file(action_file).smoothed
    data["smoothed"] = True
    action_file.write_text(json.dumps(data))
    with pytest.raises(PreconditionError, match="smoothed"):
        cli.action_from_file(action_file)
    code = cli.main(["bs", "verify-inclusions", str(action_file)])
    assert code == 2 and "disagrees with the lifts" in capsys.readouterr().err
    del data["smoothed"]
    action_file.write_text(json.dumps(data))
    assert cli.action_from_file(action_file).table.mode == "rational"


def test_pipeline_sweep(action_file, capsys):
    run(capsys, "bs", "verify-inclusions", str(action_file))
    code, out = run(capsys, "pipeline", "faithfulness",
                    "--action-file", str(action_file),
                    "--max-syllables", "2", "--exponent-bound", "2")
    assert code == 0
    assert out["total_words"] == 454 and out["inconclusive"] == 0
    assert out["counts_match_transfer_matrix"] is True


def test_pipeline_and_certify_smoothed_action(tmp_path, capsys):
    """A Fourier-smoothed action file runs through the whole CLI path in
    float mode without any mode flag."""
    path = tmp_path / "analytic.json"
    code, _ = run(capsys, "bs", "construct", str(path), "--m", "2", "--n", "3",
                  "--fourier-harmonics", "256")
    assert code == 0
    code, out = run(capsys, "bs", "verify-inclusions", str(path))
    assert code == 0 and out["verified"] is True and out["mode"] == "float"
    code, out = run(capsys, "pipeline", "faithfulness", "--action-file", str(path),
                    "--max-syllables", "2", "--exponent-bound", "2")
    assert code == 0
    assert out["total_words"] == 454 and out["inconclusive"] == 0
    code, out = run(capsys, "bs", "certify", str(path), "--word", "t a t^-1 a")
    assert code == 0 and out["verdict"] == "nontrivial"
    assert out["final_enclosure"]["rounding"] == "outward-float"


def test_pipeline_trivial_box_all_nontrivial(action_file, capsys):
    run(capsys, "bs", "verify-inclusions", str(action_file))
    code, out = run(capsys, "pipeline", "faithfulness",
                    "--action-file", str(action_file),
                    "--max-syllables", "0", "--exponent-bound", "2")
    assert code == 0 and out["total_words"] == 4 and out["nontrivial"] == 4


def test_bs12_oracle_pipeline_small(capsys):
    code, out = run(capsys, "pipeline", "bs12-oracle", "--max-letters", "4")
    assert code == 0 and out["passed"] is True
    assert out["disagreement_count"] == 0
    assert out["letter_strings"] == (4 ** 5 - 1) // 3


def test_bs12_oracle_vacuous(capsys):
    code, out = run(capsys, "pipeline", "bs12-oracle", "--max-letters", "0")
    assert code == 0 and out["passed"] is True and out["distinct_words"] == 1


def test_bs12_oracle_mutation_emits_witness(monkeypatch):
    """A rewriter with the divisibility test flipped must be caught."""
    import types

    import lineactions.words

    def broken_reduce(w):
        # deliberately wrong: treats NON-multiples of m as pinches
        current = w
        changed = True
        while changed:
            changed = False
            syl = list(current.syllables)
            for i, (kind, exp) in enumerate(syl):
                if kind != 't':
                    continue
                j = i + 1
                r = 0
                if j < len(syl) and syl[j][0] == 'a':
                    r = syl[j][1]
                    j += 1
                if j < len(syl) and syl[j] == ('t', -exp):
                    if exp == 1 and r % current.m != 0:
                        new = syl[:i] + [('a', current.n * (r // current.m))] + syl[j + 1:]
                        current = BSWord(current.m, current.n, tuple(new))
                        changed = True
                        break
        return types.SimpleNamespace(word=current)

    monkeypatch.setattr(lineactions.words, "reduce", broken_reduce)
    report = cli.pipeline_bs12_oracle(3, random_pairs=200)
    assert not report["passed"]
    assert report["disagreement_count"] > 0
    assert report["disagreements"][0]["word"]


def test_manifest_append_only(tmp_path, capsys):
    spec = tmp_path / "rot.json"
    spec.write_text(json.dumps({"kind": "affine", "slope": "1", "offset": "0"}))
    for _ in range(2):
        code, _ = run(capsys, "rotnum", "--map", str(spec), "--iters", "10",
                      "--manifest-dir", str(tmp_path / "runs"),
                      "--out", str(tmp_path / "r.json"))
        assert code == 0
    lines = (tmp_path / "runs" / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["subcommand"] == "rotnum"
    assert "map" in rec["input_hashes"]
    assert str(tmp_path / "r.json") in rec["outputs"]


def test_presentations_cli(tmp_path, capsys):
    schema = tmp_path / "mc3.json"
    code, _ = run(capsys, "presentations", "mc", "--n", "3",
                  "--emit", str(schema), "--out", str(tmp_path / "null.json"))
    assert code == 0
    code, out = run(capsys, "presentations", "commgraph", str(schema))
    assert code == 0 and out["connected"] is True
    code, out = run(capsys, "presentations", "braid-conjugator", str(schema),
                    "--x", "a_1", "--y", "b_1")
    assert code == 0 and out["equals"] == "a_1"
    code, out = run(capsys, "presentations", "autfn-verify", "--n", "4")
    assert code == 0 and out["total_failures"] == 0
    code, out = run(capsys, "presentations", "pin-convention")
    assert code == 0 and out["convention"] == "inverse-first"


def test_rigidity_cli(tmp_path, capsys):
    sine = {"kind": "sine_lift", "amplitude": "1/100"}
    data = {"n": 2,
            "g": {"kind": "compose",
                  "of": [{"kind": "inverse", "of": sine},
                         {"kind": "affine", "slope": "2", "offset": "0"}, sine]},
            "h": {"kind": "compose",
                  "of": [{"kind": "inverse", "of": sine},
                         {"kind": "affine", "slope": "1", "offset": "1"}, sine]}}
    path = tmp_path / "rig.json"
    path.write_text(json.dumps(data))
    csv = tmp_path / "phi.csv"
    code, out = run(capsys, "rigidity", "solve", "--action-file", str(path),
                    "--n", "2", "--window", "4", "--grid-step", "0.001",
                    "--tol", "1e-6", "--phi-csv", str(csv))
    assert code == 0 and out["verdict"] == "converged"
    assert csv.read_text().startswith("x,phi")
    code, out = run(capsys, "rigidity", "detect", "--action-file", str(path),
                    "--n", "2", "--window", "4")
    assert code == 0 and out["classification"] == "consistent_with_standard"


def test_json_reports_round_trip(action_file, capsys):
    run(capsys, "bs", "verify-inclusions", str(action_file))
    data = json.loads(action_file.read_text())
    act = cli.action_from_file(action_file)
    assert act.table.verified
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("spec, field", [({"kind": "theta"}, "'j'"),
                                         ({"kind": "affine", "slope": "abc"}, "'slope'")])
def test_malformed_map_spec_exits_2(tmp_path, capsys, spec, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["rotnum", "--map", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_action_file_without_h_exits_2(tmp_path, capsys):
    path = tmp_path / "act.json"
    path.write_text(json.dumps({"n": 2, "g": {"kind": "affine", "slope": "2"}}))
    assert cli.main(["rigidity", "solve", "--action-file", str(path)]) == 2
    assert "missing field 'h'" in capsys.readouterr().err


def test_action_file_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "act.json"
    path.write_text("{'n': 2,")
    assert cli.main(["rigidity", "detect", "--action-file", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


ROTATION = {"kind": "affine", "slope": "1", "offset": "1/2"}
MEASURE = ["meantrans", "--map", "rot.json", "--measure", "mu.json"]
AUDIT_ABA = ["audit-aba", "--a", "id.csv", "--b", "id.csv"]
WORDS = ["words", "--m", "2", "--n", "3"]
BRAID = ["presentations", "braid-conjugator", "s.json"]
BRAID_SCHEMA = {"name": "s", "generators": ["x", "y"], "braid": [["x", "y"]]}
# an action file whose window parameter a lies outside (0, 1/2)
A_THREE_FIFTHS = dict(build_action(2, 3).to_json(), a="3/5")


# (files to write, arguments, text the error message must hold)
@pytest.mark.parametrize("files, argv, names", [
    ({"s.json": {"generators": ["x"]}}, ["presentations", "commgraph", "s.json"], "'name'"),
    ({"s.json": {"name": "s", "generators": "xy"}},
     ["presentations", "commgraph", "s.json"], "'generators'"),
    ({"rot.json": ROTATION, "mu.json": {}}, MEASURE, "'atoms'"),
    ({"rot.json": ROTATION, "mu.json": {"atoms": [["0", "1/2", "1"]]}}, MEASURE, "'atoms'"),
    ({"grid.csv": "x,y\n0,0\nabc,1\n"}, ["rotnum", "--map", "grid.csv"], "grid.csv, line 3"),
    ({"grid.csv": "0,0\n1/0,1\n"}, ["rotnum", "--map", "grid.csv"], "grid.csv, line 2"),
    ({}, ["rotnum", "--map", "missing.json"], "missing.json"),
    ({"folder": None}, ["rotnum", "--map", "folder"], "folder"),
    ({}, ["bs", "certify", "act.json", "--word", "a", "--x0", "abc"], "--x0"),
    ({"rot.json": ROTATION}, ["rotnum", "--map", "rot.json", "--x0", "1e999"], "--x0"),
    ({"id.csv": "0,0\n1,1\n"}, AUDIT_ABA + ["--exponents", "1,x", "--interval", "0,1"],
     "--exponents"),
    ({"id.csv": "0,0\n1,1\n"}, AUDIT_ABA + ["--exponents", "1,1,1,1,1,1",
                                            "--interval", "0.4,x"], "--interval"),
    ({"sine.json": {"kind": "sine_lift", "amplitude": "1/100"}},
     ["rotnum", "--map", "sine.json", "--x0", "1e308", "--iters", "10"], "x = 1e+308"),
    ({"a35.json": A_THREE_FIFTHS}, ["bs", "certify", "a35.json", "--word", "t"], "3/5"),
    ({}, WORDS[:1] + ["reduce"] + WORDS[1:], "--word is required"),
    ({}, WORDS[:1] + ["is-trivial"] + WORDS[1:], "--word is required"),
    ({}, WORDS[:1] + ["equal"] + WORDS[1:], "--word is required"),
    ({}, WORDS[:1] + ["equal"] + WORDS[1:] + ["--word", "t"], "--word2 is required"),
    ({}, WORDS[:1] + ["obstruction"] + WORDS[1:], "--p is required"),
    ({}, WORDS[:1] + ["enumerate"] + WORDS[1:] + ["--limit", "-1"], "--limit"),
    ({}, ["bs", "construct", "--n", "3"], "--m is required"),
    ({}, ["bs", "construct", "--m", "2"], "--n is required"),
    ({}, ["bs", "obstruct"], "--m is required"),
    ({}, ["bs", "certify", "act.json"], "--word is required"),
    ({}, ["presentations", "mc"], "--n is required"),
    ({}, ["presentations", "autfn-verify"], "--n is required"),
    ({"s.json": BRAID_SCHEMA}, BRAID + ["--y", "y"], "--x is required"),
    ({"s.json": BRAID_SCHEMA}, BRAID + ["--x", "x"], "--y is required"),
], ids=["schema-no-name", "schema-string-generators", "measure-no-atoms", "atom-of-three",
        "csv-abc", "csv-1/0", "missing-file", "directory", "x0-abc", "x0-1e999", "exponents-1,x",
        "interval-0.4,x", "trig-x0-1e308", "action-a-3/5", "reduce-no-word",
        "is-trivial-no-word", "equal-no-word", "equal-no-word2", "obstruction-no-p",
        "enumerate-limit-1", "construct-no-m", "construct-no-n", "obstruct-no-flags",
        "certify-no-word", "mc-no-n", "autfn-verify-no-n", "braid-no-x", "braid-no-y"])
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, files, argv, names):
    monkeypatch.chdir(tmp_path)
    if "act.json" in argv:
        assert cli.main(["bs", "construct", "act.json", "--m", "2", "--n", "3"]) == 0
    for name, content in files.items():
        if content is None:
            (tmp_path / name).mkdir()
        else:
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error") and names in err
