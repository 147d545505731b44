"""Result-object helpers of the experiment harnesses."""

import pytest

from repro.experiments.common import Report
from repro.experiments.figure7 import Figure7Result, ThroughputCell
from repro.experiments.figure8 import Figure8Result, ScalePoint
from repro.experiments.table5 import ScaleRow, Table5Result


class TestReport:
    def test_column_alignment(self):
        report = Report("Title", ["col", "x"])
        report.add_row("a-long-cell", 1)
        report.add_row("b", 22)
        lines = report.render().splitlines()
        # Header and rows align: the second column starts at one offset.
        header = lines[2]
        row = lines[4]
        assert header.index("x") == row.index("1")

    def test_notes_render_last(self):
        report = Report("T", ["a"], notes=["first", "second"])
        lines = report.render().splitlines()
        assert lines[-2].endswith("first")
        assert lines[-1].endswith("second")


class TestFigure7Result:
    def _result(self):
        return Figure7Result(cells=[
            ThroughputCell("m", "deepspeed", 1, 10.0, 4),
            ThroughputCell("m", "angel-ptm", 1, 13.0, 5),
            ThroughputCell("m", "megatron", 1, None, 0),
        ])

    def test_normalized_to_deepspeed(self):
        result = self._result()
        assert result.normalized("m", "angel-ptm", 1) == pytest.approx(1.3)
        assert result.normalized("m", "deepspeed", 1) == pytest.approx(1.0)

    def test_oom_propagates_as_none(self):
        assert self._result().normalized("m", "megatron", 1) is None

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            self._result().get("m", "angel-ptm", 4)


class TestFigure8Result:
    def test_speedup_and_exponent(self):
        result = Figure8Result(points=[
            ScalePoint(256, 12, 10.0, 10.0 / 256),
            ScalePoint(768, 12, 33.0, 33.0 / 768),
        ])
        assert result.speedup(256, 768) == pytest.approx(3.3)
        assert result.scaling_exponent > 1.0

    def test_sublinear_exponent_below_one(self):
        result = Figure8Result(points=[
            ScalePoint(256, 12, 10.0, 10.0 / 256),
            ScalePoint(768, 12, 25.0, 25.0 / 768),
        ])
        assert result.scaling_exponent < 1.0


class TestTable5Result:
    def _result(self):
        return Table5Result(rows=[
            ScaleRow("gpt", "deepspeed", 26, 28.0, 36, 7.6),
            ScaleRow("gpt", "angel-ptm", 26, 28.0, 38, 11.0),
            ScaleRow("gpt", "angel-ptm", 68, 55.0, 1, 0.46),
        ])

    def test_scale_improvement(self):
        result = self._result()
        assert result.scale_improvement("gpt") == pytest.approx(55 / 28 - 1)

    def test_best_throughput_at_scale(self):
        result = self._result()
        assert result.best_throughput("gpt", "angel-ptm", 28.0) == 11.0
        assert result.best_throughput("gpt", "angel-ptm", 55.0) == 0.46
        assert result.best_throughput("gpt", "angel-ptm", 99.0) == 0.0
