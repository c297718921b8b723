import hashlib
import json
import os
import subprocess
import sys
import re
import shlex
from pathlib import Path

import pytest

import lfk
import lfk.cli
import lfk.floer
import lfk.lspace
from conftest import (knot_one_negated, sweep_record_from_json,
                      sweep_record_to_json, unstable_profile)
from lfk.bridge import TwoBridge
from lfk.cli import (_pipeline, all_candidates, class_id_of, classify,
                     classification_summary, equivalence_orbit, family_links,
                     main, records_from_csv, records_to_csv)
from lfk.errors import RegionUnstable
from lfk.lspace import (cor_alex2_check, normalized_family, two_bridge_profile,
                        unknot_profile, unlink_profile)


# The directory lfk was imported from, so the subprocess finds the same copy.
SRC = os.path.dirname(os.path.dirname(lfk.__file__))


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, full_env.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "lfk.cli", *args],
                          capture_output=True, text=True, env=full_env,
                          cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def test_alex_emits_example_polynomials():
    rc, out, _ = run_cli("alex", "--ab", "20", "-3")
    assert rc == 0
    data = json.loads(out)
    terms = {(tuple(t["e2"]), t["c"]) for t in data["p_empty"]["terms"]}
    assert terms == {((2, 4), 1), ((4, 2), 1), ((2, 0), 1), ((0, 2), 1),
                     ((-2, 0), 1), ((0, -2), 1), ((4, 4), -1), ((2, 2), -1),
                     ((0, 0), -1), ((-2, -2), -1)}
    assert data["linking_number"] == 2
    assert data["expansion"] == {"p": [-3, 1], "q": [-1]}


def test_alex_accepts_expansion():
    rc, out, _ = run_cli("alex", "--exp=-3,-1,1")
    assert rc == 0
    assert json.loads(out)["alpha"] == 20


def test_check_rejects_with_reason():
    rc, out, _ = run_cli("check", "--ab", "12", "5")
    assert rc == 2
    reason = json.loads(out)["reason"]
    assert "coefficient 2" in reason


def test_check_passes():
    rc, out, _ = run_cli("check", "--ab", "20", "-3")
    assert rc == 0 and json.loads(out)["ok"]


def test_check_profile_file(tmp_path):
    from lfk.bridge import TwoBridge
    from lfk.lspace import two_bridge_profile
    prof = two_bridge_profile(TwoBridge(8, -3))
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(prof.to_json()))
    rc, out, _ = run_cli("check", "--profile", str(path))
    assert rc == 0 and json.loads(out)["ok"]


def test_malformed_profile_is_a_usage_error(tmp_path, capsys):
    # each payload with the text the error must name
    payloads = {"{}": "'l'", '{"l": 2}': "'lk'", "[1]": "JSON object",
                '{"l": 2, "lk": [[0, 1], [1, 0]], "delta": {"1": 5}}':
                    "'delta'"}
    # a sign flag for component 3 of a two-component link, auto or pinned
    data = two_bridge_profile(TwoBridge(20, -3)).to_json()
    for flag in ("auto", "+"):
        data["signs"]["3"] = flag
        payloads[json.dumps(data)] = "'3'"
    for i, (text, name) in enumerate(payloads.items()):
        path = tmp_path / f"prof{i}.json"
        path.write_text(text)
        for cmd in ("check", "tgraph", "hfl"):
            assert main([cmd, "--profile", str(path)]) == 1, (cmd, text)
            captured = capsys.readouterr()
            assert captured.err.startswith("error: "), (cmd, text)
            assert name in captured.err and captured.out == "", (cmd, text)


def test_minus_sign_flag_is_refused(tmp_path, capsys):
    # "-" was accepted and read like "+": b(20,-3) with "12": "-" was
    # refused (exit 2) exactly as when pinned "+", not negated.
    for key in ("12", "1"):
        data = two_bridge_profile(TwoBridge(20, -3)).to_json()
        data["signs"][key] = "-"
        with pytest.raises(ValueError, match="sign flag"):
            lfk.lspace.LinkProfile.from_json(data)
        path = tmp_path / f"prof{key}.json"
        path.write_text(json.dumps(data))
        for cmd in ("check", "tgraph", "hfl"):
            assert main([cmd, "--profile", str(path)]) == 1, (cmd, key)
            captured = capsys.readouterr()
            assert captured.err == (f"error: sign flag {key!r} must be '+' "
                                    "or 'auto', not '-'\n"), (cmd, key)
            assert captured.out == "", (cmd, key)


def _first_unit_term(data):
    return next(t for t in data["delta"]["12"]["terms"] if t["c"] == 1)


def _negated_copy_as_21(data):
    data["delta"]["21"] = {"nvars": 2, "terms": [
        {"e2": t["e2"], "c": -t["c"]} for t in data["delta"]["12"]["terms"]]}


def _component_1_keyed_11(data):
    for name in ("delta", "signs"):
        data[name]["11"] = data[name].pop("1")


def _repeated_top_exponent(data):
    data["delta"]["12"]["terms"].insert(0, {"e2": [-3, -3], "c": 5})


@pytest.mark.parametrize("field, spoil", [
    ("delta", lambda d: _first_unit_term(d).update(c=1.4)),
    ("delta", lambda d: _first_unit_term(d).update(c="1")),
    ("lk", lambda d: d.update(lk=[[0, 2.7], [2.7, 0]])),
    ("delta", _negated_copy_as_21),      # a second key for sublink 12
    ("delta", lambda d: _first_unit_term(d).update(c=True)),
    ("lk", lambda d: d.update(lk=[[0, True], [True, 0]])),
    ("delta", _component_1_keyed_11),    # a key naming component 1 twice
    ("delta", _repeated_top_exponent),   # two terms at one exponent
], ids=["coefficient-1.4", "coefficient-string", "lk-2.7", "key-21-after-12",
        "coefficient-true", "lk-true", "key-11", "repeated-e2"])
def test_inexact_profile_numbers_are_refused(tmp_path, capsys, field, spoil):
    # b(20,-3) with one number that int() would truncate or that is a JSON
    # boolean, a sublink named twice or by a repeated component, or one
    # exponent given twice: each used to pass or fail the check on a
    # different profile.
    data = two_bridge_profile(TwoBridge(20, -3)).to_json()
    spoil(data)
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(data))
    for cmd in ("check", "tgraph", "hfl"):
        assert main([cmd, "--profile", str(path)]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: link profile field {field!r} is malformed: "), cmd
        assert captured.out == "", cmd


def test_profile_that_is_not_json_names_option_and_file(tmp_path, capsys):
    for text in (b"not json", b"", b"{", b"\xff\xfe"):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        for cmd in ("check", "tgraph", "hfl"):
            assert main([cmd, "--profile", str(path)]) == 1, (cmd, text)
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: --profile: {path}: "), \
                (cmd, text, captured.err)
            assert captured.out == "", (cmd, text)


def test_cube_subcommand():
    rc, out, _ = run_cli("cube", "--n", "2", "--labels", "all1", "--origin", "0")
    assert rc == 0
    h = json.loads(out)["homology"]
    assert sorted((g["grading"], g["dim"]) for g in h) == [(3, 1), (4, 1)]

    rc, out, _ = run_cli("cube", "--n", "2",
                         "--labels", "00->10:1,00->01:1,10->11:0,01->11:0")
    assert rc == 0
    assert json.loads(out)["homology"] == [{"grading": 3, "dim": 1}]

    rc, out, _ = run_cli("cube", "--n", "4", "--labels", "all1")
    assert rc == 2  # determined homology refuses dimension 4
    assert out == ('{"reason": "DimensionUnsupported: corner homology is '
                   'not determined by edge labels for n >= 4"}\n')

    rc, out, _ = run_cli("cube", "--n", "4", "--labels", "all1", "--oracle")
    assert rc == 0


def test_tgraph_and_hfl_json():
    rc, out, _ = run_cli("tgraph", "--ab", "20", "-3")
    assert rc == 0
    tg = json.loads(out)
    assert set(tg) == {"box", "m2", "labels", "g", "stabilized_below"}
    assert tg["m2"] == [4, 4]
    assert all(rec["l"] in (0, 1) for rec in tg["labels"])

    rc, out, _ = run_cli("hfl", "--ab", "20", "-3", "--hat", "4,4")
    data = json.loads(out)
    assert data["hat"]["groups"] == [{"grading": 1, "dim": 1}]

    rc, out, _ = run_cli("hfl", "--ab", "12", "5")
    assert rc == 2
    assert "NotLSpaceLink" in json.loads(out)["reason"]

    rc, out, _ = run_cli("tgraph", "--ab", "12", "5")
    assert rc == 2
    assert out == ('{"reason": "NotLSpaceLink: neither dichotomy branch at '
                   '(2, 2) matches coefficient -2"}\n')


def test_check_tries_every_sign_assignment_as_tgraph_does(tmp_path, capsys):
    # With component 1's Delta negated and every flag auto, the profile
    # holds only on the assignment that flips it back: check finds it as
    # tgraph does, and both read the same box.
    for prof in (two_bridge_profile(TwoBridge(20, -3)), unlink_profile(3)):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(knot_one_negated(prof).to_json()))
        assert main(["check", "--profile", str(path)]) == 0
        check = json.loads(capsys.readouterr().out)
        assert main(["tgraph", "--profile", str(path)]) == 0
        tgraph = json.loads(capsys.readouterr().out)
        assert check == {"ok": True, "box": tgraph["box"]}


def test_pinned_wrong_sign_is_refused(tmp_path, capsys):
    # Delta of b(20,-3) stored with the sign the corollary rejects, and its
    # flag pinned: every command honours the pin and refuses the profile.
    prof = two_bridge_profile(TwoBridge(20, -3))
    wrong = prof.with_signs({prof.full(): -cor_alex2_check(prof).sign})
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong.to_json()))
    reasons = {}
    for cmd in ("check", "tgraph", "hfl"):
        assert main([cmd, "--profile", str(path)]) == 2, cmd
        reasons[cmd] = json.loads(capsys.readouterr().out)["reason"]
    assert reasons["check"].startswith("cor_alex2: ")
    assert reasons["tgraph"] == reasons["hfl"] == (
        "NotLSpaceLink: neither dichotomy branch at (4, 4) matches "
        "coefficient 1")


def test_unstable_profile_needs_a_wider_margin(tmp_path, capsys,
                                               monkeypatch):
    # The default box is too narrow for this profile: every command refuses
    # it as unstable, and all pass with LFK_MARGIN=4.
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(unstable_profile().to_json()))
    field = ("RegionUnstable: labels below the box at (-4, 2) differ from "
             "the bottom row; enlarge the margin (LFK_MARGIN)")
    for cmd, reason in (("check", "RegionUnstable: value changes stepping "
                         "outward at (0, 4) (direction 2); enlarge the "
                         "margin"), ("tgraph", field), ("hfl", field)):
        assert main([cmd, "--profile", str(path)]) == 2, cmd
        assert json.loads(capsys.readouterr().out) == {"reason": reason}
    monkeypatch.setenv("LFK_MARGIN", "4")
    for cmd in ("check", "tgraph", "hfl"):
        assert main([cmd, "--profile", str(path)]) == 0, cmd
        capsys.readouterr()


def test_check_and_tgraph_agree_on_candidates(capsys):
    for link in all_candidates(30):
        ab = ["--ab", str(link.alpha), str(link.beta)]
        assert main(["check", *ab]) == main(["tgraph", *ab]), link
        capsys.readouterr()


def test_malformed_cube_is_a_usage_error(capsys):
    # an incomplete labeling, an odd origin grading, a non-unit edge, edges
    # of the wrong length
    for argv in (["--labels", "00->10:1"],
                 ["--labels", "all1", "--origin", "1"],
                 ["--labels", "00->11:1"], ["--labels", "0->10:1"],
                 ["--labels", "000->100:1"]):
        assert main(["cube", "--n", "2", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.out == "", argv


def test_bad_integers_name_their_option(capsys):
    for argv, why in (
            (["hfl", "--ab", "20", "-3", "--hat", "a,b"],
             "error: --hat takes comma-separated integers, got 'a,b'"),
            (["tgraph", "--exp", "1,x"],
             "error: --exp takes comma-separated integers, got '1,x'"),
            (["cube", "--n", "2", "--labels", "00->10"],
             "error: bad edge '00->10'"),
            (["cube", "--n", "2", "--labels", "0a->10:1"],
             "error: bad edge '0a->10:1'"),
            # an empty value is refused, not taken as an absent option
            (["hfl", "--ab", "20", "-3", "--hat", ""],
             "error: --hat takes comma-separated integers, got ''"),
            (["hfl", "--ab", "20", "-3", "--hat", " , "],
             "error: --hat takes comma-separated integers, got ' , '"),
            (["alex", "--exp", ""],
             "error: --exp takes comma-separated integers, got ''"),
            (["check", "--exp", "()"],
             "error: --exp takes comma-separated integers, got ''"),
            # so is an empty field, which would otherwise run another input
            (["alex", "--exp", "1,,1,1"],
             "error: --exp takes comma-separated integers, got '1,,1,1'"),
            (["alex", "--exp", "1,1,1,"],
             "error: --exp takes comma-separated integers, got '1,1,1,'"),
            (["check", "--exp", "(,2)"],
             "error: --exp takes comma-separated integers, got ',2'"),
            (["hfl", "--ab", "8", "-3", "--hat", "0,,0"],
             "error: --hat takes comma-separated integers, got '0,,0'"),
            (["hfl", "--ab", "8", "-3", "--hat", "0,0,"],
             "error: --hat takes comma-separated integers, got '0,0,'"),
            (["tgraph", "--profile", ""], "error: --profile: "),
            (["hfl", "--profile", ""], "error: --profile: "),
            # every integer is an optionally signed ASCII decimal: no
            # underscores, spaces or other scripts' digits, which int()
            # would read as another input
            (["alex", "--exp", "1_1,1,1"],
             "error: --exp takes comma-separated integers, got '1_1,1,1'"),
            (["alex", "--exp", "\u0661,1,1"],
             "error: --exp takes comma-separated integers, got '\u0661,1,1'"),
            (["hfl", "--ab", "20", "-3", "--hat", "4, 4"],
             "error: --hat takes comma-separated integers, got '4, 4'"),
            (["check", "--ab", "2_0", "-3"],
             "error: argument --ab: invalid int value: '2_0'"),
            (["alex", "--ab", "\u0662\u0660", "-3"],
             "error: argument --ab: invalid int value: '\u0662\u0660'"),
            (["classify", "--max-alpha", "1_0"],
             "error: argument --max-alpha: invalid int value: '1_0'"),
            (["check", "--ab", "20", "-3", "--margin", "\u0663"],
             "error: argument --margin: invalid int value: '\u0663'"),
            (["tgraph", "--ab", "20", "-3", "--margin", " 3"],
             "error: argument --margin: invalid int value: ' 3'"),
            (["cube", "--n", "2", "--origin", "1_0", "--labels", "all1"],
             "error: argument --origin: invalid int value: '1_0'"),
            (["cube", "--n", "2", "--labels", "00->10:\u0661"],
             "error: bad edge '00->10:\u0661'"),
            (["cube", "--n", "2", "--labels", "0\u0660->1\u0660:1"],
             "error: bad edge '0\u0660->1\u0660:1'")):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert why in captured.err and captured.out == "", argv


def test_cube_dimension_is_checked_first(capsys):
    for n in ("-1", "0", "5"):
        for labels in ("all0", "all1", "00->10:1"):
            assert main(["cube", "--n", n, "--labels", labels]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: cube dimension must be 1..4, got {n}\n"), (n, labels)


def test_classify_out_is_opened_before_the_sweep(tmp_path, capsys,
                                                 monkeypatch):
    # An existing file survives a failed sweep and is replaced by a good one.
    out = tmp_path / "sweep.csv"
    out.write_text("old\n" * 1000)
    assert main(["classify", "--max-alpha", "1", "--out", str(out)]) == 1
    assert out.read_text() == "old\n" * 1000
    assert main(["classify", "--max-alpha", "4", "--out", str(out)]) == 0
    assert records_from_csv(out.read_text()) == classify(4)
    capsys.readouterr()

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr(lfk.cli, "classify", no_sweep)
    missing = tmp_path / "missing" / "sweep.csv"
    assert main(["classify", "--max-alpha", "60", "--out", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_usage_errors_exit_1():
    rc, _, _ = run_cli("alex")
    assert rc == 1
    rc, _, _ = run_cli("nosuchcommand")
    assert rc == 1
    rc, _, _ = run_cli("classify")
    assert rc == 1


def test_margin_env_override():
    rc, out, _ = run_cli("tgraph", "--ab", "8", "-3", env={"LFK_MARGIN": "3"})
    assert rc == 0
    small = run_cli("tgraph", "--ab", "8", "-3")[1]
    assert json.loads(out)["box"] != json.loads(small)["box"]
    cases = [("1", "error: box margin must be at least 2")]
    # Only ASCII decimal digits are read: no underscores, signs, spaces or
    # other scripts' digits.
    cases += [(bad, f"error: LFK_MARGIN must be an integer, got {bad!r}")
              for bad in ("abc", "1_0", " +4 ", "+4", "-3", " 4", "\u0664")]
    for bad, why in cases:
        for cmd in ("check", "tgraph"):
            rc, out, err = run_cli(cmd, "--ab", "8", "-3",
                                   env={"LFK_MARGIN": bad})
            assert (rc, out, err) == (1, "", why + "\n"), (cmd, bad)


def test_margin_below_two_is_refused(capsys):
    for cmd in (["check", "--ab", "8", "-3"], ["tgraph", "--ab", "8", "-3"],
                ["hfl", "--ab", "8", "-3"], ["classify", "--max-alpha", "4"]):
        for bad in ("0", "-2"):
            assert main([*cmd, "--margin", bad]) == 1, (cmd, bad)
            assert "error" in capsys.readouterr().err, (cmd, bad)
        assert main([*cmd, "--margin", "2"]) == 0, cmd
        capsys.readouterr()


def test_expansion_input_matches_ab(capsys):
    for cmd in ("check", "tgraph", "hfl"):
        assert main([cmd, "--exp=-3,-1,1"]) == 0
        by_exp = capsys.readouterr().out
        assert main([cmd, "--ab", "20", "-3"]) == 0
        assert capsys.readouterr().out == by_exp, cmd
        assert main([cmd]) == 1
        assert "error" in capsys.readouterr().err


def test_link_inputs_are_exclusive(tmp_path, capsys):
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(unknot_profile().to_json()))
    ab, exp, prof = ["--ab", "20", "-3"], ["--exp=-3,-1,1"], ["--profile",
                                                            str(path)]
    cases = [["alex", *ab, *exp]]
    for cmd in ("check", "tgraph", "hfl"):
        cases += [[cmd, *ab, *exp], [cmd, *ab, *prof], [cmd, *exp, *prof]]
    for argv in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == "", argv
    assert main(["tgraph", *prof]) == 0


def test_hat_point_off_the_table_is_a_usage_error(capsys):
    # wrong length, off the lattice, below the box
    for hat in ("4", "3,4", "-100,-100"):
        assert main(["hfl", "--ab", "20", "-3", f"--hat={hat}"]) == 1, hat
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), hat
        assert captured.out == "", hat
    assert main(["hfl", "--ab", "20", "-3", "--hat=4,4"]) == 0
    assert json.loads(capsys.readouterr().out)["hat"]["s2"] == [4, 4]


def test_list_values_starting_with_minus_need_no_equals(capsys):
    # A comma list starting with "-" reads the same with and without "=".
    b20 = ["hfl", "--ab", "20", "-3"]
    cases = [(b20, "--hat", "-4,-4", []), (b20, "--hat", "-4,4", []),
             (b20, "--hat", "-100,-100", []), (b20, "--hat", "-4", []),
             (["alex"], "--exp", "-3,-1,1", []),
             (["check"], "--exp", "-3,-1,1", ["--margin", "3"]),
             (["tgraph"], "--exp", "-1,x", [])]
    for head, option, value, tail in cases:
        runs = []
        for form in ([*head, option, value, *tail],
                     [*head, f"{option}={value}", *tail]):
            code = main(form)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1], (head, option, value)
    assert runs[0][0] == 1 and "--exp takes" in runs[0][2]
    assert main([*b20, "--hat", "-4,4"]) == 0
    assert json.loads(capsys.readouterr().out)["hat"]["s2"] == [-4, 4]


def test_abbreviated_list_options_need_no_equals(capsys):
    # A prefix argparse resolves to --hat or --exp alone reads a value
    # starting with "-" the same with and without "=".
    b20 = ["hfl", "--ab", "20", "-3"]
    cases = [(b20, "--ha", "-4,4"), (b20, "--ha", "-4,-4"),
             (["alex"], "--ex", "-3,-1,1"), (["alex"], "--e", "-3,-1,1"),
             (["check"], "--e", "-3,-1,1")]
    for head, option, value in cases:
        runs = []
        for form in ([*head, option, value], [*head, f"{option}={value}"]):
            code = main(form)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1], (head, option, value)
        assert runs[0][0] != 1, (head, option, value)
    assert main([*b20, "--ha", "-4,4"]) == 0
    assert json.loads(capsys.readouterr().out)["hat"]["s2"] == [-4, 4]
    # --h also names --help, so it stays an ambiguous option.
    assert main([*b20, "--h", "-4,4"]) == 1
    assert "ambiguous option" in capsys.readouterr().err


def test_equivalence_orbit_and_representative():
    orbit = equivalence_orbit(20, -3)
    assert orbit == {37, 13, 17, 33}
    # The sweep's row for a class is the candidate at its orbit minimum.
    rows = {r.class_id: (r.alpha, r.beta) for r in classify(20)}
    assert rows["20:13"] == (20, 13)
    assert class_id_of(20, -3) == "20:13" == class_id_of(20, -7)


def test_pipeline_builds_two_families(monkeypatch):
    # One for the corollary check, one for the lattice build, which the
    # cross-check reads back off the graph.
    calls = []

    def counting(prof):
        calls.append(prof)
        return normalized_family(prof)

    monkeypatch.setattr(lfk.lspace, "normalized_family", counting)
    monkeypatch.setattr(lfk.floer, "normalized_family", counting)
    rep = TwoBridge(20, -3)
    assert _pipeline(rep, class_id_of(20, -3), True, 2).survivor
    assert len(calls) == 2


def test_build_refusal_is_recorded_under_tgraph(monkeypatch):
    # A refusal other than NotLSpaceLink belongs to the build too: the
    # corollary passed, so its column must not carry the failure.
    plain = classify(6)

    def refuse(prof, margin=None):
        raise RegionUnstable("boundary values moved")

    monkeypatch.setattr(lfk.cli, "build_tgraph", refuse)
    records = classify(6)
    assert records_to_csv(records).splitlines()[1] == \
        "2,1,1,,pass,RegionUnstable,skipped,true,2:1"
    for rec, before in zip(records, plain, strict=True):
        if before.cor_alex2 == "pass":
            assert (rec.cor_alex2, rec.tgraph, rec.sigma_cross) == \
                ("pass", "RegionUnstable", "skipped")
        else:
            assert rec == before


def test_check_builds_one_family_per_assignment(monkeypatch, capsys):
    # b(20,-3): one for the stored profile, from which the assignment that
    # fails the corollary and the flipped one, which passes both checks,
    # are derived.
    builds, build = [], lfk.lspace._build_family

    def counting(prof):
        builds.append(prof)
        return build(prof)

    monkeypatch.setattr(lfk.lspace, "_build_family", counting)
    assert main(["check", "--ab", "20", "-3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(builds) == 1


def test_family_links_cover_reversal_forms():
    fams = {(l.alpha, l.beta) for l in family_links(20)}
    assert fams >= {(2, -1), (4, -1), (8, -3), (8, -1),
                    (14, -3), (14, -5), (20, -3), (20, -7)}


def test_classify_20_matches_family():
    records = classify(20)
    summary = classification_summary(records)
    assert summary["match"]
    survivors = {r.class_id for r in records if r.survivor}
    for alpha, beta in ((2, -1), (4, -1), (8, -3), (14, -3), (14, -5),
                        (20, -3), (20, -7)):
        assert class_id_of(alpha, beta) in survivors
    # soundness: family members pass everything
    for r in records:
        if r.family_member:
            assert r.survivor, r


def test_classify_monotone():
    r20 = {r.class_id: r for r in classify(20)}
    r28 = {r.class_id: r for r in classify(28)}
    assert set(r20) <= set(r28)
    for cid, rec in r20.items():
        assert r28[cid] == rec


def test_classify_100_matches_pinned_csv():
    # The CSV carries each record's first cross-check mismatch, so this pins
    # the order in which the cross-check reports them as well.
    pinned = Path(__file__).parent / "data" / "sweep100.csv"
    assert records_to_csv(classify(100)).encode() == pinned.read_bytes()


def test_classify_200_matches_pinned_digest():
    # The 2269 classes with alpha <= 200, pinned as the sha256 of the CSV.
    records = classify(200)
    assert len(records) == 2269
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == (
        "bca629398d2600a0e4b392bb2397dbca52e1cedf07da75e44801f368607195f1")


def test_classify_b12_record():
    records = {(r.alpha, r.beta): r for r in classify(12)}
    rec = records[(12, 5)]
    assert rec.cor_alex2.startswith("fail:")
    assert "coefficient 2" in rec.cor_alex2
    assert not rec.family_member


def test_sweep_records_roundtrip():
    records = classify(16)
    csv_text = records_to_csv(records)
    assert records_from_csv(csv_text) == records
    as_json = [sweep_record_to_json(r) for r in records]
    back = [sweep_record_from_json(json.loads(json.dumps(d)))
            for d in as_json]
    assert back == records


def test_classify_cli(tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run_cli("classify", "--max-alpha", "12",
                         "--out", str(out_path))
    assert rc == 0
    summary = json.loads(out)
    assert summary["match"]
    text = out_path.read_text()
    assert records_from_csv(text) == classify(12)


def test_main_returns_codes_in_process(capsys):
    assert main(["check", "--ab", "20", "-3"]) == 0
    assert main(["check", "--ab", "12", "5"]) == 2
    capsys.readouterr()


README = Path(__file__).parent.parent / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs(capsys):
    (code,) = _readme_blocks("python")
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == ["F(1)", "True"]


def test_readme_commands_exit_as_documented(tmp_path):
    lines = [line for block in _readme_blocks("sh")
             for line in block.splitlines() if line.startswith("lfk ")]
    assert len(lines) == 10
    for line in lines:
        command, _, comment = line.partition("#")
        rc, _, err = run_cli(*shlex.split(command)[1:], cwd=tmp_path)
        assert rc == (2 if "exit 2" in comment else 0), (line, err)
