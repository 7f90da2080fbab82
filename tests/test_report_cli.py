import json
import subprocess
import sys
from dataclasses import replace

import pytest

import sqpbands
from sqpbands import Closure, SurfaceGraph, acceptance, bundled_alpha, cli, parse_band_word
from sqpbands.report import Certificate, ReportEnvelope, compare_with_expected, load_corpus
from sqpbands.selection import RelocationLostError, UnlinkInputError
from sqpbands.surface import TracingBugError
from sqpbands.svg import band_diagram_svg
from sqpbands.tie import OracleViolationError
from sqpbands.words import BandWord, WordSyntaxError

# The running interpreter's -O and -W flags, so a `python -O -W error` test
# run also runs its CLI subprocesses that way.
PYTHON = [sys.executable, *["-O"] * sys.flags.optimize, *(f"-W{w}" for w in sys.warnoptions)]


def run_cli(*args):
    return subprocess.run(
        [*PYTHON, "-m", "sqpbands.cli", *args],
        capture_output=True,
        text=True,
    )


def test_envelope_roundtrip():
    env = ReportEnvelope("invariants", {"word": "b(1,2)", "strands": 2})
    env.reports.append({"components": 1})
    env.finish()
    again = ReportEnvelope.from_json(env.to_json())
    assert again.subcommand == "invariants"
    assert again.reports == [{"components": 1}]
    assert again.schema_version == env.schema_version
    assert again.tool_version == sqpbands.__version__
    # A stored version is restored as written, not replaced by this one.
    stored = json.loads(env.to_json())
    stored["tool_version"] = "0.0.1"
    assert ReportEnvelope.from_json(json.dumps(stored)).tool_version == "0.0.1"


def test_every_exported_name_resolves():
    for name in sqpbands.__all__:
        assert hasattr(sqpbands, name), name


def test_corpus_loads_and_replays():
    corpus = load_corpus()
    assert len(corpus) >= 8
    names = {entry.name for entry in corpus}
    assert {"alpha", "trefoil", "hopf"} <= names
    for entry in corpus:
        for cert in compare_with_expected(entry, Closure(entry.word), 8):
            assert cert.status == "pass", f"{cert.name} {cert.detail}"
            assert cert.name.startswith(f"corpus:{entry.name}:")


def test_corpus_jones_over_budget_is_skipped():
    entry = next(e for e in load_corpus() if e.name == "trefoil")
    certs = {c.name: c.status for c in compare_with_expected(entry, Closure(entry.word), 1)}
    assert certs["corpus:trefoil:jones"] == "skipped"
    assert certs["corpus:trefoil:alexander"] == "pass"


def run_selftest(capsys, *args):
    code = cli.main(["selftest", *args])
    out = capsys.readouterr().out
    return code, json.loads(out) if "--json" in args else out


def _checks(payload, number):
    report = next(r for r in payload["reports"] if r["number"] == number)
    return {c["name"]: c["status"] for c in report["checks"]}


def test_cli_selftest_json_replays_the_corpus_in_c2(capsys):
    code, payload = run_selftest(capsys, "--json")
    assert code == 0
    assert [r["number"] for r in payload["reports"]] == list(range(1, 9))
    assert all(r["passed"] for r in payload["reports"])
    c2 = _checks(payload, 2)
    for entry in load_corpus():
        names = [n for n in c2 if n.startswith(f"corpus:{entry.name}:")]
        assert f"corpus:{entry.name}:alexander" in names
        assert {c2[n] for n in names} == {"pass"}


def test_cli_selftest_corrupted_sidecar_exits_2(monkeypatch, capsys):
    def corrupted():
        return [
            replace(e, expected={**e.expected, "determinant": 4}) if e.name == "trefoil" else e
            for e in load_corpus()
        ]

    monkeypatch.setattr(acceptance, "load_corpus", corrupted)
    code, payload = run_selftest(capsys, "--json")
    assert code == 2
    c2 = _checks(payload, 2)
    assert c2["corpus:trefoil:determinant"] == "fail"
    assert c2["corpus:hopf:determinant"] == "pass"
    # Text mode prints the failed certificate under its criterion's line.
    code, out = run_selftest(capsys)
    assert code == 2
    lines = out.splitlines()
    c2_line = next(i for i, line in enumerate(lines) if line.startswith("C2 "))
    assert "FAIL" in lines[c2_line]
    assert lines[c2_line + 1] == "  corpus:trefoil:determinant: fail"


def test_cli_selftest_swapped_splice_template_exits_2(monkeypatch, capsys):
    swapped = replace(bundled_alpha(), splice=(("a1", "q"), ("a2", "p")))
    monkeypatch.setattr(acceptance, "bundled_alpha", lambda: swapped)
    code, payload = run_selftest(capsys, "--json")
    assert code == 2
    c7 = next(r for r in payload["reports"] if r["number"] == 7)
    assert not c7["passed"]
    failed = [c for c in c7["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["d:linking", "raised"]
    assert "OracleViolationError" in failed[1]["detail"]


def test_cli_selftest_text_prints_one_line_per_criterion(capsys):
    code, out = run_selftest(capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith(f"C{n} ") for n, line in enumerate(lines, start=1))


_TOP_USAGE = "usage: sqpbands [-h] [--version] {validate,invariants,family,selftest} ...\n"

_INVARIANTS_USAGE = """\
usage: sqpbands invariants [-h] --strands STRANDS [--artin] [--with-jones]
                           [--no-jones] [--budget BUDGET] [--json]
                           [--svg PATH]
                           word
"""

_TOP_HELP = _TOP_USAGE + """
Band-generator braid words, their surfaces, and splice families

positional arguments:
  {validate,invariants,family,selftest}
    validate            parse a band word and check its surface data
    invariants          full invariant report of a closure
    family              iterated splice family with certificates
    selftest            run the acceptance suite

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

_VALIDATE_HELP = """\
usage: sqpbands validate [-h] --strands STRANDS [--json] word

positional arguments:
  word               band word, e.g. 'b(1,2) b(1,3)' (may be empty: '')

options:
  -h, --help         show this help message and exit
  --strands STRANDS
  --json
"""

_INVARIANTS_HELP = _INVARIANTS_USAGE + """
positional arguments:
  word

options:
  -h, --help         show this help message and exit
  --strands STRANDS
  --artin            parse as s<k>/S<k> Artin word
  --with-jones
  --no-jones
  --budget BUDGET
  --json
  --svg PATH         write the band diagram as SVG
"""

_FAMILY_HELP = """\
usage: sqpbands family [-h] --strands STRANDS --count COUNT
                       [--annulus ANNULUS] [--with-jones] [--budget BUDGET]
                       [--json]
                       word

positional arguments:
  word

options:
  -h, --help         show this help message and exit
  --strands STRANDS
  --count COUNT
  --annulus ANNULUS  'bundled' (slice companion), 'trivial' (unknot control),
                     or a JSON file
  --with-jones
  --budget BUDGET
  --json
"""

_SELFTEST_HELP = """\
usage: sqpbands selftest [-h] [--budget BUDGET] [--json]

options:
  -h, --help       show this help message and exit
  --budget BUDGET
  --json
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", _TOP_USAGE + "sqpbands: error: the following arguments are required: command\n"),
        (["-h"], 0, _TOP_HELP, ""),
        (["--version"], 0, f"sqpbands {sqpbands.__version__}\n", ""),
        (["validate", "-h"], 0, _VALIDATE_HELP, ""),
        (["invariants", "-h"], 0, _INVARIANTS_HELP, ""),
        (["family", "-h"], 0, _FAMILY_HELP, ""),
        (["selftest", "-h"], 0, _SELFTEST_HELP, ""),
        (
            ["invariants"],
            2,
            "",
            _INVARIANTS_USAGE
            + "sqpbands invariants: error: the following arguments are required: word, --strands\n",
        ),
        (
            ["invariants", "b(1,2)", "--strands", "x"],
            2,
            "",
            _INVARIANTS_USAGE
            + "sqpbands invariants: error: argument --strands: invalid int value: 'x'\n",
        ),
        # Arguments that no parser takes are reported by the top-level parser.
        (
            ["invariants", "b(1,2)", "--strands", "2", "--bogus"],
            2,
            "",
            _TOP_USAGE + "sqpbands: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["--json", "invariants", "b(1,2)", "--strands", "2"],
            2,
            "",
            _TOP_USAGE + "sqpbands: error: unrecognized arguments: --json\n",
        ),
    ],
    ids=[
        "no-arguments",
        "help",
        "version",
        "validate-help",
        "invariants-help",
        "family-help",
        "selftest-help",
        "invariants-without-word",
        "non-integer-strands",
        "unrecognized-option-after-word",
        "json-before-subcommand",
    ],
)
def test_cli_parsing_exits(monkeypatch, capsys, argv, code, out, err):
    # argparse wraps help and usage at the terminal width, read from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_cli_unknown_subcommand_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    # Newer Python releases print the choices without quotes.
    names = ["validate", "invariants", "family", "selftest"]
    assert err in {
        _TOP_USAGE + "sqpbands: error: argument command: invalid choice: 'bogus' "
        f"(choose from {', '.join(choices)})\n"
        for choices in (map(repr, names), names)
    }


def test_cli_import_leaves_selftest_and_svg_unloaded():
    code = (
        "import sys, sqpbands.cli; "
        "print(sorted({'sqpbands.acceptance', 'sqpbands.svg'} & set(sys.modules)))"
    )
    r = subprocess.run([*PYTHON, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_cli_validate_alpha():
    r = run_cli(
        "validate",
        "b(1,6) b(3,8) b(2,5) b(1,4) b(3,7) b(2,6) b(5,8) b(4,7)",
        "--strands",
        "8",
    )
    assert r.returncode == 0
    assert "boundary_components: 2" in r.stdout


def test_cli_validate_rejects_bad_token():
    r = run_cli("validate", "b(3,2)", "--strands", "3")
    assert r.returncode == 1
    assert "token 1" in r.stderr


def test_cli_validate_empty_word_on_one_strand():
    r = run_cli("validate", "", "--strands", "1")
    assert r.returncode == 0


def test_cli_invariants_json_schema():
    r = run_cli("invariants", "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["schema_version"] == "1"
    report = payload["reports"][0]
    assert report["signature"] == -2
    assert report["determinant"] == 3
    assert report["alexander_str"] == "t^2 - t + 1"
    assert report["jones_str"] is not None


def test_cli_invariants_artin_word_report():
    r = run_cli("invariants", "s1 s1 s1", "--strands", "2", "--artin", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)["reports"][0]
    # Seifert's surface of the diagram: chi = strands - letters, b1 = letters - columns.
    assert report["components"] == 1
    assert report["chi"] == -1 and report["betti"] == 2
    assert report["alexander"] == [[0, 1], [1, -1], [2, 1]]
    assert report["signature"] == -2 and report["determinant"] == 3
    assert report["genus_profile"] == []


def test_cli_invariants_artin_svg_is_refused_before_the_report(tmp_path, capsys):
    out = tmp_path / "x.svg"
    code = cli.main(
        ["invariants", "s1 s1 s1", "--strands", "2", "--artin", "--svg", str(out), "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["exit_code"] == 1
    assert "band word" in payload["error"]["message"]
    assert payload["reports"] == []
    assert not out.exists()


def test_cli_invariants_budget_skips_jones():
    r = run_cli(
        "invariants", "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--budget", "1", "--json"
    )
    assert r.returncode == 0
    report = json.loads(r.stdout)["reports"][0]
    assert report["jones"] is None and report["jones_budget_exceeded"] is True


def test_cli_invariants_empty_word_unknot_report():
    r = run_cli("invariants", "", "--strands", "1", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)["reports"][0]
    assert report["components"] == 1
    assert report["alexander_str"] == "1"
    assert report["signature"] == 0 and report["determinant"] == 1


def test_cli_invariants_svg(tmp_path):
    out = tmp_path / "diagram.svg"
    r = run_cli(
        "invariants", "b(1,3) b(2,3)", "--strands", "3", "--no-jones", "--svg", str(out)
    )
    assert r.returncode == 0
    text = out.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_cli_invariants_unwritable_svg_exits_1(tmp_path):
    out = tmp_path / "missing-dir" / "x.svg"
    r = run_cli(
        "invariants", "b(1,3) b(2,3)", "--strands", "3", "--no-jones", "--svg", str(out),
        "--json",
    )
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["error"]["exit_code"] == 1
    assert "missing-dir" in payload["error"]["message"]
    assert payload["reports"] == []


def test_cli_family_trivial_control():
    r = run_cli(
        "family",
        "b(1,2) b(1,2) b(1,2)",
        "--strands",
        "2",
        "--count",
        "1",
        "--annulus",
        "trivial",
        "--json",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    steps = payload["family"]
    assert len(steps) == 2
    assert steps[1]["strands"] == 4
    assert steps[0]["report"]["alexander_str"] == steps[1]["report"]["alexander_str"]
    statuses = {c["status"] for c in payload["certificates"]}
    assert statuses <= {"pass"}


@pytest.mark.parametrize(
    "budget, status, step_1_jones",
    [(None, "pass", True), ("4", "paper-cited", False)],
    ids=["default-budget", "budget-4"],
)
def test_cli_family_with_jones(budget, status, step_1_jones):
    # Step 1 of the trefoil family has 10 strands: within the default
    # budget, past a budget of 4.
    extra = ["--budget", budget] if budget else []
    r = run_cli(
        "family", "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--count", "1",
        "--with-jones", "--json", *extra,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    rows = {c["name"]: c["status"] for c in payload["certificates"]}
    assert rows["non-isotopy-0-vs-1"] == status
    step_0, step_1 = (step["report"] for step in payload["family"])
    assert step_0["jones"] is not None and not step_0["jones_budget_exceeded"]
    assert (step_1["jones"] is not None) == step_1_jones
    assert step_1["jones_budget_exceeded"] == (not step_1_jones)


def test_cli_family_rejects_unlink_with_explanation():
    r = run_cli("family", "b(1,2)", "--strands", "2", "--count", "1")
    assert r.returncode == 1
    assert "unlink" in r.stderr
    assert "slice" in r.stderr


def test_cli_family_annulus_file(tmp_path):
    spec = {
        "word": "b(1,2) b(1,2)",
        "strands": 2,
        "designated_band": 1,
        "companion_name": "unknot-from-file",
        "companion_alexander": [[0, 1]],
    }
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(spec))
    r = run_cli(
        "family",
        "b(1,2) b(1,2) b(1,2)",
        "--strands",
        "2",
        "--count",
        "1",
        "--annulus",
        str(path),
        "--json",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["family"][1]["annulus"] == "unknot-from-file"


def test_cli_family_annulus_file_with_wrong_companion_exits_1(tmp_path):
    spec = {
        "word": "b(1,2) b(1,2)",
        "strands": 2,
        "designated_band": 1,
        "companion_name": "not-m946",
        "companion_alexander": [[0, 2], [1, -5], [2, 2]],
    }
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(spec))
    r = run_cli(
        "family",
        "b(1,2) b(1,2) b(1,2)",
        "--strands",
        "2",
        "--count",
        "1",
        "--annulus",
        str(path),
    )
    assert r.returncode == 1
    assert "Alexander" in r.stderr


_GOOD_ANNULUS = {
    "word": "b(1,2) b(1,2)",
    "strands": 2,
    "designated_band": 1,
    "companion_alexander": [[0, 1]],
}


def _without(key):
    return {k: v for k, v in _GOOD_ANNULUS.items() if k != key}


@pytest.mark.parametrize(
    "spec, field",
    [
        ([_GOOD_ANNULUS], "JSON object"),
        (_without("designated_band"), "designated_band"),
        (_without("companion_alexander"), "companion_alexander"),
        ({**_GOOD_ANNULUS, "strands": [2]}, "strands"),
        ({**_GOOD_ANNULUS, "companion_alexander": 5}, "companion_alexander"),
        ({**_GOOD_ANNULUS, "splice": 3}, "splice"),
        ({**_GOOD_ANNULUS, "word": 7}, "word"),
        ({**_GOOD_ANNULUS, "companion_name": ["x"]}, "companion_name"),
        # An unknotted annulus with two negative full twists: its boundary
        # circles link twice, and the construction needs linking +1.
        ({**_GOOD_ANNULUS, "word": "b(1,2) b(1,3) b(2,3)", "strands": 3}, "link 2, expected 1"),
    ],
    ids=[
        "list",
        "no-designated-band",
        "no-companion-alexander",
        "non-integer-strands",
        "non-list-companion-alexander",
        "non-list-splice",
        "non-string-word",
        "non-string-companion-name",
        "linking-2",
    ],
)
def test_cli_family_malformed_annulus_file_exits_1(tmp_path, spec, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    r = run_cli(
        "family", "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--count", "1",
        "--annulus", str(path), "--json",
    )
    assert r.returncode == 1, r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"]["exit_code"] == 1
    assert field in payload["error"]["message"]


def test_cli_family_broken_template_exits_3(tmp_path):
    spec = {
        "word": "b(1,2) b(1,2)",
        "strands": 2,
        "designated_band": 1,
        "companion_name": "broken",
        "companion_alexander": [[0, 1]],
        "splice": [["a1", "p"], ["a2", "q"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    r = run_cli(
        "family",
        "b(1,2) b(1,2) b(1,2)",
        "--strands",
        "2",
        "--count",
        "1",
        "--annulus",
        str(path),
    )
    assert r.returncode == 3
    assert "oracle" in r.stderr.lower() or "splice" in r.stderr.lower()


def run_family_in_process(capsys):
    code = cli.main(
        ["family", "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--count", "1", "--json"]
    )
    return code, json.loads(capsys.readouterr().out)


def test_cli_family_tracing_bug_in_reports_exits_3(monkeypatch, capsys):
    def broken_report(*args, **kwargs):
        raise TracingBugError("forced in the report stage")

    monkeypatch.setattr(cli, "full_report", broken_report)
    code, payload = run_family_in_process(capsys)
    assert code == 3
    assert payload["error"] == {"message": "forced in the report stage", "exit_code": 3}
    assert payload["family"] == []


def test_cli_family_surface_without_a_band_exits_3(monkeypatch, capsys):
    # With no band on a cycle the trefoil has neither a Case1 nor a Case2 band.
    monkeypatch.setattr(SurfaceGraph, "on_cycle", lambda self, pos: False)
    code, payload = run_family_in_process(capsys)
    assert code == 3
    assert payload["error"]["exit_code"] == 3
    assert "neither a Case1 nor a Case2" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["validate", "invariants", "family"])
@pytest.mark.parametrize(
    "kind, code",
    [
        (WordSyntaxError, 1),
        (UnlinkInputError, 1),
        (OSError, 1),
        (ValueError, 1),
        (TracingBugError, 3),
        (RelocationLostError, 3),
        (OracleViolationError, 3),
        (KeyError, None),
    ],
)
def test_cli_error_table(monkeypatch, capsys, command, kind, code):
    if kind is OracleViolationError:
        error = kind("forced", (Certificate("forced", "fail", "raised by the test"),))
    else:
        error = kind("forced")

    def first_library_call(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "parse_band_word", first_library_call)
    argv = [command, "b(1,2) b(1,2) b(1,2)", "--strands", "2", "--json"]
    argv += ["--count", "1"] if command == "family" else []
    if code is None:
        # Not an input or oracle error: a bug, reported with its traceback.
        with pytest.raises(KeyError):
            cli.main(argv)
        assert capsys.readouterr().out == ""
        return
    assert cli.main(argv) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"message": "forced", "exit_code": code}
    certificates = getattr(error, "certificates", ())
    assert payload["certificates"] == [c.to_json_dict() for c in certificates]
    assert payload["reports"] == [] and payload["family"] == []


def test_svg_contains_all_bands():
    word = parse_band_word("b(1,4) b(2,3) b(1,2)", 4)
    svg = band_diagram_svg(word)
    assert svg.count('class="band"') == 3
    assert svg.count('class="rail"') == 4


def test_svg_deterministic():
    word = BandWord(3, ((1, 3), (2, 3)))
    assert band_diagram_svg(word) == band_diagram_svg(word)
