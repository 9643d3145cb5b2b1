import hashlib
import json
from pathlib import Path

import pytest

from numsem import UsageError, search
from numsem.cli import _CHECKS, Report, execute, main, parse, render

import data


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_info():
    cmd = parse(["info", "13,19,24,44,49,54,55,59,60,66"])
    assert cmd.verb == "info"
    assert cmd.gens == list(data.E13)


def test_parse_search_flags():
    cmd = parse(["search", "--e-range", "10..12", "--v-offset", "3"])
    assert cmd.verb == "search"
    assert cmd.flags["e_range"] == "10..12"
    assert cmd.flags["v_offset"] == 3


def test_parse_bad_input_is_still_parsed():
    cmd = parse(["info", "4,6"])
    assert cmd.gens == [4, 6]
    report = execute(cmd)
    assert report.exit_code == 1
    assert report.payload["error"] == "GcdNotOne"


def test_parse_usage_errors():
    with pytest.raises(UsageError):
        parse([])
    with pytest.raises(UsageError):
        parse(["frobnicate", "2,3"])
    with pytest.raises(UsageError):
        parse(["info"])
    with pytest.raises(UsageError):
        parse(["info", "2,3", "--workers"])
    with pytest.raises(UsageError):
        parse(["info", "2,3", "--no-such-flag", "1"])
    with pytest.raises(UsageError):
        parse(["check", "bogus", "2,3"])
    with pytest.raises(UsageError):
        parse(["info", "2,3", "--format", "csv"])  # csv is search-only


def test_info_text_output(capsys, e13):
    code, out, err = run(["info", ",".join(map(str, data.E13))], capsys)
    assert code == 0
    assert "hilbert.arrow: [1,10,9,11,12,13->]" in out
    assert "d_sets.2: 44,49,54,59" in out
    assert "classification.symmetric: false" in out


def test_info_json_round_trip(capsys):
    code, out, err = run(
        ["info", ",".join(map(str, data.E13)), "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    payload = doc["payload"]
    assert payload["e"] == 13
    assert payload["hilbert"]["values"] == [1, 10, 9, 11, 12, 13]
    assert payload["d_sets"]["2"] == [44, 49, 54, 59]
    assert payload["classification"]["sp_params"]["p"] == 6
    # byte-identical re-render from the parsed payload
    report = Report(payload, doc["warnings"], doc["exit_code"])
    assert render(report, "json") == out


def test_render_library_reports():
    """``render`` on reports a library caller builds: text lists the
    warnings after the payload, and csv exists only for a search payload."""
    report = execute(parse(["info", "3,5"]))
    with pytest.raises(UsageError, match="only available for search"):
        render(report, "csv")
    warned = Report({"e": 3}, ["first", "second"])
    assert render(warned, "text") == "e: 3\nwarning: first\nwarning: second\n"


def test_check_exit_codes(capsys):
    gens = ",".join(map(str, data.E13))
    code, out, _ = run(["check", "offset-3", gens], capsys)
    assert code == 0
    code, out, _ = run(["check", "offset-4", gens], capsys)
    assert code == 2
    code, out, _ = run(["check", "chain", gens], capsys)
    assert code == 2
    code, out, _ = run(["check", "c3", ",".join(map(str, data.AP24_E17_B))], capsys)
    assert code == 2  # |Ap_2| = 4 fails the hypothesis
    code, out, _ = run(["check", "symmetric", "3,4"], capsys)
    assert code == 0 and "symmetric: true" in out
    code, out, _ = run(["check", "delta", gens], capsys)
    assert code == 0 and "ok: true" in out
    code, out, _ = run(["check", "cm", "5,6,7"], capsys)
    assert code == 0 and "tangent_cone_cm: true" in out


@pytest.mark.parametrize(
    "check, gens, e, f, extra",
    [
        ("c3", [13, 18, 37, 38, 58], 13, 79, {"witnesses": []}),
        ("ap2-4", [12, 15, 28, 29, 35], 12, 61, {}),
    ],
)
def test_check_reports_no_pattern(capsys, check, gens, e, f, extra):
    """|Ap_2| = 3 with no C_3 pattern, and |Ap_2| = 4 with no case: the
    hypothesis holds, so the check exits 0 with found false."""
    code, out, _ = run(["check", check, ",".join(map(str, gens)), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == {
        "check": check,
        "e": e,
        "found": False,
        "frobenius": f,
        "generators": gens,
        "v": 5,
        **extra,
    }


def test_check_family_member(capsys):
    gens = ",".join(map(str, data.SP_FAMILY[1][1]))
    code, out, _ = run(["check", "offset-3", gens], capsys)
    assert code == 0
    assert "decreasing: true" in out
    assert "consistent: true" in out


def test_validation_error_exit(capsys):
    code, out, err = run(["info", "4,6"], capsys)
    assert code == 1
    assert "GcdNotOne" in out


def test_unaffordable_generators_exit_1(capsys):
    code, out, err = run(["info", "99999999999999999999,2"], capsys)
    assert code == 1
    assert "error: ResourceLimit" in out
    assert err == ""


def test_search_over_budget_exit_1(capsys, monkeypatch):
    """A bound no leaf could be built under fails before any task is listed."""

    def listed(e, bound):
        raise AssertionError("tasks listed for e = %d" % e)

    monkeypatch.setattr(search, "_cells", listed)
    code, out, err = run(
        ["search", "--e-range", "13..13", "--v-offset", "3", "--gen-bound", "1000000e"],
        capsys,
    )
    assert code == 1
    assert "error: ResourceLimit" in out
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--e-range", "0..0", "--v-offset", "4", "--gen-bound", "10"],
        ["--e-range", "0..1", "--v-offset", "3"],
    ],
    ids=["0..0-bound-10", "0..1"],
)
def test_search_multiplicity_below_1_exit_1(capsys, argv):
    code, out, err = run(["search", *argv], capsys)
    assert code == 1
    assert "error: BadRange" in out
    assert err == ""


@pytest.mark.parametrize("form", ["text", "json", "csv"])
def test_search_reversed_range_exit_1(capsys, form):
    """A reversed --e-range is an input error, not a search with no hits."""
    code, out, err = run(
        ["search", "--e-range", "14..13", "--v-offset", "3", "--format", form], capsys
    )
    assert code == 1
    assert "count" not in out
    assert "BadRange" in (err if form == "csv" else out)


def test_usage_error_exit(capsys):
    code, out, err = run(["info"], capsys)
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize(
    "argv, first_err",
    [
        (["check", "offset-3"], "error: check takes WHAT and a generator list"),
        (["residue-table"], "error: residue-table takes the modulus e"),
        (["search", "13"], "error: search takes flags only"),
        (["info", "2,3", "--format", "xml"], "error: --format must be text, json or csv"),
        (["construct-sp", "--p", "1", "--k", "1"], "error: construct-sp needs --kprime"),
        (["search", "--v-offset", "3"], "error: search needs --e-range"),
        (["search", "--e-range", "13", "--v-offset", "3"],
         "error: --e-range must look like LO..HI"),
        (["search", "--e-range", "\u00b2..3", "--v-offset", "3"],
         "error: --e-range must look like LO..HI"),
        (["search", "--e-range", "13..13", "--v-offset", "3", "--gen-bound", "e"],
         "error: --gen-bound must be an integer or Ne form"),
        (["info", "2,x"], "error: InvalidGenerator: not an integer: 'x'"),
        (["apery", "3,5", "--max-level", "2"], "error: apery does not take --max-level"),
        (["info", "2,3", "--workers", "1"], "error: info does not take --workers"),
        (["check", "symmetric", "2,3", "--p", "1"], "error: check does not take --p"),
        (["search", "--e-range", "13..13", "--v-offset", "3", "--max-level", "2"],
         "error: search does not take --max-level"),
        (["strata", "3,5,7", "--max-level"], "error: flag --max-level needs a value"),
        (["search", "--e-range", "13..13", "--v-offset", "3", "--gen-bound", "12e",
          "--format", "json", "--format", "csv"], "error: flag --format given twice"),
    ],
    ids=["check-no-gens", "residue-no-modulus", "search-positional", "format-xml",
         "construct-no-kprime", "search-no-range", "range-form", "range-superscript",
         "gen-bound-form", "bad-generator", "apery-max-level", "info-workers",
         "check-p", "search-max-level", "flag-no-value", "flag-twice"],
)
def test_usage_error_lines(capsys, argv, first_err):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == first_err


def test_residue_table_verb(capsys):
    code, out, _ = run(["residue-table", "13"], capsys)
    assert code == 0
    assert "admissible_h: 4,10" in out


@pytest.mark.parametrize("modulus", ["13,", ",13", "x", "13,14"])
def test_residue_table_needs_one_integer(capsys, modulus):
    code, out, err = run(["residue-table", modulus], capsys)
    assert code == 1
    assert out == ""
    assert "usage" in err


def test_construct_sp_verb(capsys):
    code, out, _ = run(
        ["construct-sp", "--p", "6", "--k", "1", "--kprime", "0"], capsys
    )
    assert code == 0
    assert "generators: 13,19,24,44,49,54,55,59,60,66" in out
    code, out, _ = run(
        ["construct-sp", "--p", "1", "--k", "1", "--kprime", "5"], capsys
    )
    assert code == 1  # k' beyond the family constraint


def test_search_csv_determinism(capsys):
    argv = ["search", "--e-range", "13..13", "--v-offset", "3",
            "--gen-bound", "4e", "--format", "csv"]
    code1, out1, _ = run(argv + ["--workers", "1"], capsys)
    code2, out2, _ = run(argv + ["--workers", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("e,v,generators,hilbert,decreasing_levels\n")
    # csv builds its csv string alone, the one the json payload carries
    assert execute(parse(argv)).payload == {"csv": out1}
    argv[-1] = "json"
    assert execute(parse(argv)).payload["csv"] == out1


def test_search_empty_csv(capsys):
    code, out, _ = run(
        ["search", "--e-range", "10..11", "--v-offset", "3", "--gen-bound", "20e",
         "--format", "csv"], capsys
    )
    assert code == 0
    assert out == "e,v,generators,hilbert,decreasing_levels\n"


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--v-offset", "3", "--gen-bound", "2000000"],
         "error: ResourceLimit: multiplicity 13 times generator bound 2000000 "
         "exceeds the window budget 16777216"),
        (["--v-offset", "5"], "error: BadRange: v_offset must be 3 or 4"),
    ],
    ids=["over-budget", "bad-offset"],
)
def test_search_csv_error_goes_to_stderr(capsys, flags, line):
    """A failed csv search has no csv to print: its error is one stderr line."""
    code, out, err = run(["search", "--e-range", "13..13", *flags, "--format", "csv"], capsys)
    assert code == 1
    assert out == ""
    assert err == line + "\n"


def test_seed_flag_accepted_and_echoed(capsys):
    code, out, _ = run(["hilbert", "2,3", "--seed", "7"], capsys)
    assert code == 0
    assert "seed: 7" in out
    code, out, _ = run(["hilbert", "2,3", "--seed", "7", "--format", "json"], capsys)
    assert json.loads(out)["payload"]["seed"] == 7


def test_strata_max_level_flag(capsys):
    gens = ",".join(map(str, data.E13))
    code, out, _ = run(["strata", gens, "--max-level", "3"], capsys)
    assert code == 0
    assert "c_sets.3: 57,62,67,72" in out
    assert "c_sets.4" not in out
    assert "d_sets.4" not in out


@pytest.mark.parametrize("level", ["x", "-1"])
def test_strata_max_level_must_be_a_level(capsys, level):
    code, out, err = run(["strata", "5,7,9", "--max-level", level], capsys)
    assert code == 1
    assert out == ""
    assert "usage" in err


# -- frozen output --------------------------------------------------------------

_GOLDEN = Path(__file__).with_name("cli_digests.json")
_VIEWS = [("info",), ("apery",), ("hilbert",), ("strata",), ("strata", "--max-level", "3")]
# Two- and three-generator ladders, whose windows are wide against e * v.
_LADDERS = [(30, 31), (100, 101), (200, 201), (60, 61, 62)]
_LADDER_VIEWS = [("info",), ("hilbert",), ("strata",)]


def golden_argvs():
    """Every argument vector whose output the golden digests freeze."""
    instances = list(data.ALL_STUDY_INSTANCES)
    instances += [gens for _, gens in data.SP_FAMILY.values()]
    seen = {}
    for gens in instances:
        text = ",".join(map(str, gens))
        argvs = [[view[0], text, *view[1:]] for view in _VIEWS]
        argvs += [["check", what, text] for what in _CHECKS]
        for argv in argvs:
            seen[" ".join(argv)] = argv
    for gens in _LADDERS:
        text = ",".join(map(str, gens))
        for view in _LADDER_VIEWS:
            argv = [view[0], text, *view[1:]]
            seen[" ".join(argv)] = argv
    for argv in (
        ["residue-table", "13"],
        ["construct-sp", "--p", "6", "--k", "1", "--kprime", "0"],
        ["search", "--e-range", "13..13", "--v-offset", "3", "--gen-bound", "4e"],
    ):
        seen[" ".join(argv)] = argv
    return list(seen.values())


def output_digests(capsys) -> dict:
    """sha256 of exit code, stdout and stderr per (argv, format)."""
    digests = {}
    for argv in golden_argvs():
        for fmt in ("text", "json"):
            full = argv + ["--format", fmt]
            code, out, err = run(full, capsys)
            blob = "%d\n%s\n%s" % (code, out, err)
            digests[" ".join(full)] = hashlib.sha256(blob.encode()).hexdigest()
    return digests


def test_cli_output_is_frozen(capsys):
    """Text and JSON output of every verb stay byte-identical to the frozen run."""
    want = json.loads(_GOLDEN.read_text())
    got = output_digests(capsys)
    assert sorted(got) == sorted(want)
    changed = [argv for argv in want if got[argv] != want[argv]]
    assert not changed, "output changed for %d of %d: %s" % (
        len(changed), len(want), changed[:5])
