"""The golden corpus's ``diff``: an invocation whose outputs moved in their numbers only is
reported with its largest relative move."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden_cli  # noqa: E402


def result(stdout="", stderr="", exit=0, files=None):
    return {"args": [], "exit": exit, "stdout": stdout, "stderr": stderr, "files": files or {}}


class TestNumericMove:
    def test_largest_relative_move_over_stdout_and_files(self):
        a = result("final_wealth\t2.25\nmax_drawdown\t0\n", files={"p.csv": "day,wealth\n0,1\n1,2.5\n"})
        b = result("final_wealth\t2\nmax_drawdown\t-0\n", files={"p.csv": "day,wealth\n0,1\n1,2\n"})
        assert golden_cli.numeric_move(a, b) == 0.2  # the plot's 2.5 -> 2; the stdout moved 0.25 / 2.25

    def test_no_move_reported_where_text_or_exit_moved(self):
        assert golden_cli.numeric_move(result("a\t1\n"), result("b\t1\n")) is None
        assert golden_cli.numeric_move(result("x 1"), result("x 1 2")) is None
        assert golden_cli.numeric_move(result(exit=0), result(exit=2)) is None
        assert golden_cli.numeric_move(result(files={"a": "1"}), result(files={"b": "1"})) is None

    def test_diff_prints_each_move_and_the_largest(self, tmp_path, capsys):
        before = {"moved": result("w\t1.25\n"), "refused": result("w\t1\n"), "same": result("w\t3\n")}
        after = {"moved": result("w\t1.5\n"), "refused": result(stderr="switchfolio: no\n", exit=2),
                 "same": result("w\t3\n")}
        paths = []
        for name, capture in (("a.json", before), ("b.json", after)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(capture))
        assert golden_cli.diff(*paths) == 1
        assert capsys.readouterr().out.splitlines() == [
            "moved: stdout differ (exit 0 -> 0); numbers only, largest relative move 0.167",
            "refused: exit, stdout, stderr differ (exit 0 -> 2)",
            "2 of 3 invocations differ",
            "largest relative move among those that differ in numbers only: 0.167",
        ]
