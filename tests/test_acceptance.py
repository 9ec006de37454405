"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; criteria that skip under the
generator budget guard are reported as pytest skips, never silent.
Run `pytest -s tests/test_acceptance.py` for the live table, or
`polarblock accept` for the standalone report.
"""

import re
import time

import pytest

from polarblock import acceptance


@pytest.mark.slow
@pytest.mark.parametrize(
    "func,limit",
    acceptance.CRITERIA,
    ids=[f"criterion_{i + 1}" for i in range(len(acceptance.CRITERIA))])
def test_criterion(func, limit):
    t0 = time.monotonic()
    res = func()
    secs = time.monotonic() - t0
    lim = f" (limit {limit:.0f}s)" if limit else ""
    print(f"[{res.status.upper()}] {res.cid}: {res.title} "
          f"[{secs:.1f}s{lim}] {res.detail}")
    # the detail is the same on every run of the same code
    assert not re.search(r"\(\d+s\)", res.detail), res.detail
    if res.status == "skip":
        pytest.skip(res.detail)
    assert res.status == "pass", res.detail
    if limit is not None:
        assert secs < limit, f"{secs:.1f}s exceeded the {limit:.0f}s budget"


def test_criteria_filed_in_number_order_with_their_limits():
    # _criterion files each criterion with the limit it is declared with
    assert [(func.__name__, limit) for func, limit in acceptance.CRITERIA] == [
        ("criterion_1", 5.0), ("criterion_2", 30.0), ("criterion_3", 60.0),
        ("criterion_4", 120.0), ("criterion_5", 300.0), ("criterion_6", None),
        ("criterion_7", None), ("criterion_8", 60.0), ("criterion_9", 60.0),
        ("criterion_10", 120.0), ("criterion_11", None)]


def test_threshold_census_criteria_details_pinned():
    # criteria 4 and 5 list every minimal set up to the pencil size and
    # classify each; their details name the count and the census
    assert [(res.status, res.detail) for res in (
        acceptance.criterion_4(), acceptance.criterion_5())] == [
        ("pass", "243 minimal sets, census "
                 "{'Pencil': 27, 'CoverOfSectionQ4': 216}"),
        ("pass", "1575 minimal sets, census "
                 "{'ConeOverConicPencil': 315, 'ConeOverQplus3Spread': 1260}")]
