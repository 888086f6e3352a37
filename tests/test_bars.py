"""ASCII bar rendering."""


from repro.analysis.bars import render_bar, render_bar_chart


class TestRenderBar:
    def test_full_bar(self):
        assert render_bar(1.0, 1.0, width=10) == "#" * 10

    def test_half_bar(self):
        bar = render_bar(0.5, 1.0, width=10)
        assert bar.count("#") == 5
        assert len(bar) == 10

    def test_zero(self):
        assert render_bar(0.0, 1.0, width=8).count("#") == 0

    def test_clamps_above_peak(self):
        assert render_bar(5.0, 1.0, width=8) == "#" * 8

    def test_zero_peak(self):
        assert render_bar(1.0, 0.0, width=8).count("#") == 0

    def test_negative_clamped(self):
        assert render_bar(-1.0, 1.0, width=8).count("#") == 0


class TestRenderBarChart:
    def test_rows_and_columns_rendered(self):
        chart = render_bar_chart({"fdtd2d": {"a": 0.1, "b": 1.0}})
        assert "fdtd2d" in chart
        assert "a" in chart and "b" in chart
        assert "|" in chart

    def test_peak_scaling(self):
        chart = render_bar_chart({"r": {"c": 0.5}}, peak=1.0, width=10)
        assert chart.count("#") == 5

    def test_autoscale_to_max(self):
        chart = render_bar_chart({"r": {"lo": 1.0, "hi": 2.0}}, width=10)
        lines = [line for line in chart.splitlines() if "|" in line]
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_empty(self):
        assert render_bar_chart({}) == "(empty)"

    def test_row_label_only_on_first_line(self):
        chart = render_bar_chart({"bench": {"a": 1.0, "b": 1.0}})
        lines = [line for line in chart.splitlines() if "|" in line]
        assert lines[0].startswith("bench")
        assert not lines[1].startswith("bench")
