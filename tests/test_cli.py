"""CLI: every subcommand end-to-end through main()."""

import pytest

from repro.cli import build_parser, main
from repro.io import load_attack_result, load_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "cora.npz"
    code = main(["dataset", "cora", "--scale", "0.05", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def attack_file(tmp_path, graph_file):
    path = tmp_path / "poison.npz"
    code = main(
        ["attack", "PEEGA", "--graph", str(graph_file), "--rate", "0.05", "--out", str(path)]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_attacker_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "Nope", "--out", "x.npz"])


class TestDatasetCommand:
    def test_writes_loadable_graph(self, graph_file, capsys):
        graph = load_graph(graph_file)
        assert graph.name == "cora"
        assert graph.num_nodes >= 80


class TestAttackCommand:
    def test_writes_attack_archive(self, attack_file):
        result = load_attack_result(attack_file)
        assert result.num_perturbations > 0
        result.verify_budget()

    def test_dataset_source(self, tmp_path, capsys):
        out = tmp_path / "p.npz"
        code = main(
            [
                "attack", "PEEGA", "--dataset", "cora", "--scale", "0.05",
                "--rate", "0.05", "--out", str(out),
            ]
        )
        assert code == 0
        assert "edge flips" in capsys.readouterr().out

    def test_both_sources_rejected(self, tmp_path, graph_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "attack", "PEEGA", "--graph", str(graph_file), "--dataset",
                    "cora", "--out", str(tmp_path / "x.npz"),
                ]
            )


class TestDefendCommand:
    def test_defend_on_attack_archive(self, attack_file, capsys):
        code = main(["defend", "GCN", "--attack", str(attack_file), "--seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GCN on cora" in out

    def test_defend_on_clean_graph(self, graph_file, capsys):
        code = main(["defend", "GNAT", "--graph", str(graph_file), "--seeds", "1"])
        assert code == 0
        assert "GNAT" in capsys.readouterr().out

    def test_exactly_one_source(self, graph_file, attack_file):
        with pytest.raises(SystemExit):
            main(["defend", "GCN", "--graph", str(graph_file), "--attack", str(attack_file)])
        with pytest.raises(SystemExit):
            main(["defend", "GCN"])


class TestAnalyzeAndInfo:
    def test_analyze(self, attack_file, capsys):
        code = main(["analyze", "--attack", str(attack_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "homophily" in out and "add_diff" in out

    def test_info(self, graph_file, capsys):
        code = main(["info", "--graph", str(graph_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "degrees" in out and "homophily" in out


class TestTableCommand:
    def test_small_table(self, capsys):
        code = main(
            [
                "table", "cora", "--scale", "0.05", "--seeds", "1",
                "--attackers", "PEEGA", "--defenders", "GCN", "GNAT",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PEEGA" in out and "GNAT" in out and "Clean" in out
