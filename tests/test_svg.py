import math
from pathlib import Path
from xml.etree import ElementTree

import pytest

from censored_evi.cli import _read_results_csv
from censored_evi.svg import PALETTE, Series, render_chart

RESULTS = Path(__file__).parent / "data" / "results_small.csv"

LINE = Series(label="line", points=((1.0, 0.5), (2.0, 0.7), (3.0, 0.4)))
DOT = Series(label="dot", points=((2.0, 1.0),))


def results_chart(metric):
    """The series and labels of ``results_small.csv`` for one metric."""
    groups = _read_results_csv(str(RESULTS), metric)
    return [Series(spec.label, tuple(p for p in pts if math.isfinite(p[1])))
            for spec, pts in groups.items()], "k", metric


class TestRenderChart:
    def test_deterministic(self):
        a = render_chart([LINE, DOT], "k", "mse")
        b = render_chart([LINE, DOT], "k", "mse")
        assert a == b

    def test_document_shape(self):
        text = render_chart([LINE], "k", "mse")
        assert text.startswith("<svg ")
        assert text.endswith("</svg>\n")
        assert 'viewBox="0 0 960 540"' in text
        assert text.count("<svg") == 1

    def test_polyline_per_multipoint_series(self):
        text = render_chart([LINE, DOT], "k", "mse")
        assert text.count("<polyline") == 1
        assert text.count("<circle") == len(LINE.points) + len(DOT.points)
        assert PALETTE[0] in text and PALETTE[1] in text

    def test_single_point_has_marker_but_no_line(self):
        text = render_chart([DOT], "k", "mse")
        assert "<polyline" not in text
        assert text.count("<circle") == 1

    def test_legend_and_axis_labels(self):
        text = render_chart([LINE, DOT], "threshold k", "median bias")
        assert ">line</text>" in text
        assert ">dot</text>" in text
        assert ">threshold k</text>" in text
        assert ">median bias</text>" in text

    def test_labels_are_escaped(self):
        text = render_chart([Series(label="a<b&c", points=((0.0, 0.0), (1.0, 1.0)))], "x", "y")
        assert "a&lt;b&amp;c" in text
        assert "a<b&c" not in text

    @pytest.mark.parametrize("series,x_label,y_label", [
        ([Series("a<b&c>d", LINE.points), Series("\"q\" & 'p'", DOT.points)], "k <&>", "m \"'"),
        ([Series("&amp; &#60; ]]>", LINE.points)], "'", '"'),
        results_chart("median_bias"),
        results_chart("mse"),
    ])
    def test_document_is_well_formed_xml(self, series, x_label, y_label):
        root = ElementTree.fromstring(render_chart(series, x_label, y_label))
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        for label in [x_label, y_label, *(s.label for s in series)]:
            assert label in texts

    def test_constant_series_does_not_collapse_the_scale(self):
        flat = Series(label="flat", points=((1.0, 2.0), (2.0, 2.0), (3.0, 2.0)))
        text = render_chart([flat], "x", "y")
        assert "<polyline" in text

    def test_empty_series_are_skipped(self):
        text = render_chart([Series(label="void", points=()), LINE], "x", "y")
        assert ">line</text>" in text
        assert ">void</text>" not in text

    def test_nothing_to_draw_raises(self):
        with pytest.raises(ValueError, match="no drawable"):
            render_chart([Series(label="void", points=())], "x", "y")
        with pytest.raises(ValueError, match="no drawable"):
            render_chart([], "x", "y")

    def test_palette_cycles_beyond_eight_series(self):
        many = [
            Series(label=f"s{i}", points=((0.0, float(i)), (1.0, float(i))))
            for i in range(10)
        ]
        text = render_chart(many, "x", "y")
        assert text.count("<polyline") == 10
