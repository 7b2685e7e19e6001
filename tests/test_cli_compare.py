"""End-to-end `repro table --compare`: runner → report → CLI."""

from repro.cli import main


class TestCompareFlag:
    def test_compare_renders_markdown(self, capsys):
        code = main(
            [
                "table", "cora", "--scale", "0.04", "--seeds", "1",
                "--attackers", "PEEGA", "GF-Attack", "Metattack",
                "--defenders", "GCN", "GNAT",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("### cora @ rate 0.1")
        assert "| attacker |" in out
        assert "Shape claims" in out
        # Paper references must be present for known cells.
        assert "(83.4)" in out  # clean GCN paper value
        # Every claim line carries a verdict icon.
        claim_lines = [l for l in out.splitlines() if l.startswith("- ")]
        assert len(claim_lines) == 5
        assert all(("✅" in l) or ("❌" in l) for l in claim_lines)

    def test_plain_table_unaffected(self, capsys):
        code = main(
            [
                "table", "cora", "--scale", "0.04", "--seeds", "1",
                "--attackers", "PEEGA", "--defenders", "GCN",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Attacker" in out
        assert "Shape claims" not in out
