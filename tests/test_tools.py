"""The maintenance scripts under tools/: their pure helpers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_artifacts import summarize  # noqa: E402


def _report(argmin: str, eps: str, residual: str) -> str:
    return (f'{{"report": {{"argmin": {argmin}, "epsilon_total": {eps}, '
            f'"epsilon_requested": 1e-6, "max_residual": {residual}}}}}')


def test_summary_gives_the_absolute_difference_beside_the_relative_one():
    # two rounding-level zeros of opposite sign: a relative change near 1.5,
    # an absolute one of 5.3e-38; a real change of 1e-7 relative, 5e-14 absolute
    parent = _report("3.6e-38", "5.0e-7", "1e-40")
    change = _report("-1.7e-38", "5.00000050e-7", "1e-40")
    csv_text = "x,value\n0.5,1.0\n"
    summary = summarize({"change": (change, csv_text), "parent": (parent, csv_text)})
    assert summary == ("JSON key report.argmin 1.472e+00 abs 5.300e-38; "
                       "JSON key report.epsilon_total 1.000e-07 abs 5.000e-14; "
                       "parent epsilon_total/epsilon_requested 0.5 max_residual 1e-40; "
                       "change epsilon_total/epsilon_requested 0.5 max_residual 1e-40")


def test_summary_of_identical_texts_is_none_and_a_one_sided_key_is_inf():
    text = _report("0.0", "5e-7", "1e-40")
    assert summarize({"change": (text, "x\n1\n"), "parent": (text, "x\n1\n")}) is None
    summary = summarize({"change": ('{"a": 1, "b": 2}', "x\n1\n"),
                         "parent": ('{"a": 1}', "x,y\n1,2\n")})
    assert summary == "JSON key b inf abs inf; CSV column y inf abs inf"
