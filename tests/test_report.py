"""Measured-vs-paper report rendering."""

from repro.experiments import (
    AccuracyTable,
    CellResult,
    evaluate_shape_claims,
    render_comparison,
)


def synthetic_table() -> AccuracyTable:
    """A hand-built measured table with the paper's claimed shape."""
    def cell(value):
        return CellResult.from_values([value])

    table = AccuracyTable(dataset="cora", rate=0.1)
    table.rows = {
        "Clean": {"GCN": cell(0.84), "GNAT": cell(0.86)},
        "GF-Attack": {"GCN": cell(0.83), "GNAT": cell(0.85)},
        "Metattack": {"GCN": cell(0.74), "GNAT": cell(0.82)},
        "PEEGA": {"GCN": cell(0.73), "GNAT": cell(0.83)},
    }
    return table


class TestShapeClaims:
    def test_all_claims_hold_on_shapely_table(self):
        claims = evaluate_shape_claims(synthetic_table())
        assert all(holds for _, holds in claims), claims
        assert len(claims) == 5

    def test_claims_fail_on_inverted_table(self):
        table = synthetic_table()
        # Make GF-Attack the strongest and GNAT worse than GCN.
        table.rows["GF-Attack"]["GCN"] = CellResult.from_values([0.50])
        table.rows["GF-Attack"]["GNAT"] = CellResult.from_values([0.40])
        claims = dict(evaluate_shape_claims(table))
        assert not claims["PEEGA is stronger than the spectral black-box GF-Attack"]
        assert not claims["the strongest attacker is Metattack or PEEGA"]
        assert not claims["GNAT beats raw GCN under the strongest attack"]


class TestRendering:
    def test_markdown_structure(self):
        text = render_comparison(synthetic_table())
        assert text.startswith("### cora @ rate 0.1")
        assert "| attacker |" in text
        # Paper reference numbers are included in parentheses (1 decimal).
        assert "(83.4)" in text  # paper's clean GCN on Cora (83.36)
        assert "Shape claims" in text
        assert "✅" in text

    def test_missing_paper_cell_renders_dash(self):
        table = synthetic_table()
        table.rows["Clean"]["MyNewDefense"] = CellResult.from_values([0.9])
        for row in table.rows.values():
            row.setdefault("MyNewDefense", CellResult.from_values([0.5]))
        text = render_comparison(table)
        assert "(—)" in text
