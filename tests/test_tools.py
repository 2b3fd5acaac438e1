"""The maintenance scripts under tools/: their pure helpers."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
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


def test_the_benchmark_scripts_import():
    # they share run_child, host, revision and RUNS with compare_artifacts,
    # which CI runs; a moved helper must not break them silently
    import bench_eval
    import bench_sweep
    import compare_artifacts

    for tool in (bench_eval, bench_sweep):
        assert tool.run_child is compare_artifacts.run_child
        assert tool.RUNS == compare_artifacts.RUNS


def test_the_sweep_split_finds_and_times_every_stage_in_this_tree():
    # the split wraps its stages by name: a renamed or deleted stage must
    # fail here, not read 0 in the next BENCH_sweep.json
    import bench_sweep

    raw = bench_sweep.run_sweep_child(ROOT, 3)
    assert raw["missing"] == []
    assert raw["ln_int_entries"] > 0 and raw["ln_int_misses_per_call"] >= 0
    assert raw["wrapped"] == bench_sweep.STAGE_NAMES
    stages = (*bench_sweep.STAGES, "bound")
    for stage in stages:
        assert sum(level["counts"].get(stage, 0) for level in raw["levels"].values()) > 0, stage
        assert sum(level["raw"].get(stage, 0.0) for level in raw["levels"].values()) > 0.0, stage


def test_every_coefficient_built_on_the_compare_grid_lies_within_the_magnitude_bound(tmp_path):
    # the bound of exact decimal I/O is far past what the builds store, and
    # their artifact text reads back
    import sharmonic as sh
    from compare_artifacts import CASES, GRID_CSV
    from sharmonic._dyadic import MAGNITUDE_BITS

    grid = tmp_path / "grid.csv"
    grid.write_text(GRID_CSV, encoding="ascii")
    builds = [dict(zip(args[1::2], args[2::2])) for args in CASES if args[0] == "approximate"]
    assert len(builds) == 14
    for opts in builds:
        target = sh.target_from_spec(opts["--target"].replace("{grid}", str(grid)))
        combo, _ = sh.approximate(target, float(opts["--epsilon"]), float(opts["--s"]))
        for block in combo.blocks:
            _, man, exp, bc = block.c._mpf_
            assert man and abs(exp + bc) <= MAGNITUDE_BITS
        assert len(sh.combo_from_json(sh.combo_to_json(combo)).blocks) == len(combo.blocks)


def test_src_lines_counts_each_kind_and_a_blank_docstring_line_twice(tmp_path):
    from src_lines import count_lines, count_tree, table

    text = ('"""Module docstring.\n'
            '\n'
            'Its second paragraph."""\n'
            '\n'
            '# a comment on its own\n'
            'X = """not a docstring,\n'
            '\n'
            'a string spanning three lines"""  # code with a comment\n'
            '\n'
            '\n'
            'def f(a,\n'
            '      b):\n'
            '    """One line."""\n'
            '    return a + b\n')
    assert count_lines(text) == {"code": 6, "docstring": 4, "comment": 1, "blank": 5}
    package = tmp_path / "src" / "sharmonic"
    package.mkdir(parents=True)
    (package / "a.py").write_text(text)
    (package / "b.py").write_text("x = 1\n")
    counts = count_tree(tmp_path)
    assert counts == {"a.py": count_lines(text), "b.py": {"code": 1, "docstring": 0,
                                                          "comment": 0, "blank": 0}}
    rows = table(counts, {"a.py": count_lines(text)}).splitlines()
    assert rows[0].split() == ["file", "code", "docstring", "comment", "blank"]
    assert rows[2].split() == ["b.py", "0", "->", "1", "0", "->", "0", "0", "->", "0",
                               "0", "->", "0"]
    assert rows[3].split() == ["total", "6", "->", "7", "4", "->", "4", "1", "->", "1",
                               "5", "->", "5"]
