"""Acceptance criteria, one test per criterion, each printing its line.

Every criterion runs its exact checks at the stated tolerance (all checks
here are symbolic equalities) and must finish inside its runtime budget;
both are enforced by CriterionResult.
"""

from sqpbands import acceptance


def _run(criterion):
    result = criterion()
    print()
    print(result.line())
    for c in result.checks:
        if c.status != "pass":
            print(f"  {c.name}: {c.status} {c.detail}")
    failed = [c for c in result.checks if c.status == "fail"]
    assert result.passed, f"criterion {result.number} failed: {failed}"
    return result


def test_criterion_1_alpha_verification():
    result = _run(acceptance.criterion_1_alpha)
    names = {c.name for c in result.checks}
    assert "component-0-alexander" in names and "component-1-determinant" in names


def test_criterion_2_oracle_equivalence():
    result = _run(acceptance.criterion_2_oracles)
    jones_checks = [c for c in result.checks if c.name.startswith("jones:")]
    assert jones_checks, "no corpus word exercised the Jones oracle pair"
    random_checks = [c for c in result.checks if c.name.startswith("alexander:random-")]
    assert len(random_checks) == 20


def test_criterion_3_selection():
    _run(acceptance.criterion_3_selection)


def test_criterion_4_trivial_annulus_control():
    result = _run(acceptance.criterion_4_trivial_control)
    jones = [c for c in result.checks if c.name.endswith(":jones")]
    assert all(c.status == "pass" for c in jones)


def test_criterion_5_case1_family():
    result = _run(acceptance.criterion_5_case1_family)
    degrees = [c for c in result.checks if c.name.endswith(":degree")]
    assert [d.detail for d in degrees] == [
        "degree 0",
        "degree 2",
        "degree 4",
        "degree 6",
    ]
    # The status is the family ledger's pairwise-non-isotopy row.
    assert {c.name: c.status for c in result.checks}["pairwise-non-isotopic"] == "pass"


def test_criterion_6_case2_family():
    result = _run(acceptance.criterion_6_case2_family)
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["jones-witness-i1"] == "pass"
    assert statuses["pairwise-non-isotopy-i>=2"] == "paper-cited"


def test_criterion_7_tie_oracle_ledger():
    result = _run(acceptance.criterion_7_tie_ledger)
    seeds = [c for c in result.checks if c.name.startswith("seed-")]
    assert len(seeds) == 50


def test_criterion_8_tb_arithmetic():
    _run(acceptance.criterion_8_tb)


def test_budget_starved_suite_skips_jones_but_passes():
    """With a tiny strand budget the Jones steps degrade to 'skipped'."""
    result = acceptance.criterion_6_case2_family(budget=4)
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["jones-witness-i1"] == "skipped"
    assert result.passed


def test_corrupted_alpha_constant_fails_criterion_1(monkeypatch):
    """Negative control: damaging the bundled word must trip verification."""
    import sys

    import sqpbands.tie  # noqa: F401  (the package re-exports shadow the module)

    tie_mod = sys.modules["sqpbands.tie"]
    bad = ((1, 6), (3, 8), (2, 5), (1, 4), (3, 7), (2, 6), (5, 8), (4, 6))
    monkeypatch.setattr(tie_mod, "ALPHA_LETTERS", bad)
    try:
        result = acceptance.criterion_1_alpha()
        passed = result.passed
    except Exception:
        passed = False
    assert not passed
