"""Golden fixtures freezing wire formats and sign/index conventions.

If one of these fails after an edit, a serialization schema or an algebraic
convention (matrix indexing, column order, orientation) drifted.
"""

import json

from beltrami import expr as ex
from beltrami.chart import build_chart
from beltrami.cli import main
from beltrami.obstruction import obstruction_P, tensor_T

GOLDEN_P_EVAL = {
    "base_point": ["0", "0", "0"],
    "coeffs": [
        {"c": "-81/4", "mi": [0, 0]},
        {"c": "567/8", "mi": [1, 0]},
        {"c": "9477/16", "mi": [2, 0]},
    ],
    "degree": 2,
    "frame": "graph",
    "indices": [2, 3, 4, 5],
    "level": "1",
    "mode": "rational",
    "orders": {"t": 4, "xi": 3},
}


def test_golden_obstruction_json():
    from fractions import Fraction

    P = obstruction_P(
        ex.parse("1+a*x1+b*x1^3+x3"), {"a": Fraction(1), "b": Fraction(1)},
        (0, 0, 0), degree=2, frame="graph", mode="rational",
    )
    assert P.to_json() == GOLDEN_P_EVAL


GOLDEN_T_ENTRY = {
    "vars": ["t", "xi1", "xi2"],
    "order": [3, 3],
    "coeffs": [{"mi": [0, 0, 0], "c": 1.0}, {"mi": [1, 0, 0], "c": 1.0}],
}


def test_golden_series_json_flat_T():
    ch = build_chart(ex.parse("1+x3"), None, (0, 0, 0), t_order=3, xi_order=3)
    T = tensor_T(ch)
    assert T.entry(0, 1).to_json() == GOLDEN_T_ENTRY
    assert T.entry(1, 0).to_json()["coeffs"] == [
        {"mi": [0, 0, 0], "c": -1.0},
        {"mi": [1, 0, 0], "c": -1.0},
    ]


def test_golden_cli_report_bytes(capsys):
    main([
        "coeffs-prop4", "--a", "0", "--out", "-",
    ])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["computed"] == {"q20": "33792", "q11": "0", "q02": "0"}
    assert data["pass"] is True
