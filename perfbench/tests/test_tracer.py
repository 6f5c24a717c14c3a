"""The traced run wraps the layer functions and puts them back afterwards."""

from beltrami import chart, evolution, expr, obstruction, series
from tracer import TARGETS, Tracer


def test_install_wraps_and_uninstall_restores():
    before = (series.compose3, chart.compose3, series.TruncatedSeries.__mul__,
              evolution.tensor_T, obstruction.tensor_T)
    tracer = Tracer()
    tracer.install()
    try:
        assert chart.compose3 is series.compose3 is not before[0]
        assert evolution.tensor_T is obstruction.tensor_T is not before[3]
        obstruction.obstruction_P(expr.parse("1+x1+x1^3+x3"), None, (0, 0, 0), degree=0,
                                  t_order=4, xi_order=2, frame="rotated")
    finally:
        tracer.uninstall()
    assert (series.compose3, chart.compose3, series.TruncatedSeries.__mul__,
            evolution.tensor_T, obstruction.tensor_T) == before
    m = tracer.metrics(passes=1, spaces_built=0)
    assert m["series.mul_double.calls"] > 0 and m["series.mul_exact.calls"] == 0
    assert m["chart.flow.compose3_calls"] > 0
    assert m["chart.graph_solve.compose3_calls"] > 0
    assert m["obstruction.recursion.s"] > 0
    assert tracer.absent == []
    # every closed span has a parent that opened before it
    for nid, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr("tracer.TARGETS", TARGETS + (("beltrami.chart", "no_such", "x"),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["beltrami.chart.no_such"]
