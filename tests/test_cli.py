import json

import pytest

from ktsbm import PenaltySpec, estimate_order, read_graph_file
from ktsbm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_and_estimate_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "pi": [0.5, 0.5], "P": [[0.9, 0.1], [0.1, 0.9]], "n": 9, "seed": 3}))
    code, out, _ = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert code == 0
    assert out.startswith("n=9 edges=")

    graph_file = tmp_path / "s" / "graph.txt"
    labels_file = tmp_path / "s" / "labels.txt"
    labels = labels_file.read_text().splitlines()
    assert len(labels) == 9 and set(labels) <= {"1", "2"}

    code, out, _ = run_cli(
        capsys, "estimate", str(graph_file), "--k-max", "3", "--out", str(tmp_path / "e")
    )
    assert code == 0
    k_line = [ln for ln in out.splitlines() if ln.startswith("k_hat=")][0]
    # serialization fidelity: the CLI result equals the in-process one
    g = read_graph_file(graph_file)
    k_hat, table = estimate_order(g, PenaltySpec(1.0), k_max=3)
    assert k_line == f"k_hat={k_hat}"
    payload = json.loads((tmp_path / "e" / "estimate.json").read_text())
    assert payload["k_hat"] == k_hat
    assert payload["rows"][0]["score"] == table.rows[0].score


def test_sample_empty_graph_header(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1, "pi": [1.0], "P": [[0.0]], "n": 4, "seed": 0}))
    code, _, _ = run_cli(capsys, "sample", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "graph.txt").read_text().splitlines()[0] == "4 0"


def test_sample_determinism_bytes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1, "pi": [1.0], "P": [[0.4]], "n": 15, "seed": 8}))
    run_cli(capsys, "sample", "--config", str(cfg), "--out", str(tmp_path / "a"))
    run_cli(capsys, "sample", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "graph.txt").read_bytes() == (tmp_path / "b" / "graph.txt").read_bytes()
    assert (tmp_path / "a" / "labels.txt").read_bytes() == (tmp_path / "b" / "labels.txt").read_bytes()


def test_estimate_malformed_self_loop_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n3 3\n")
    code, _, err = run_cli(capsys, "estimate", str(bad))
    assert code == 2
    assert "line 2" in err


def test_estimate_infeasible_exit_code(tmp_path, capsys):
    # a 40-node graph is far beyond the exact enumeration cap when forced
    n = 40
    lines = [f"{n} 0"]
    big = tmp_path / "big.txt"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "estimate", str(big), "--k-max", "8")
    assert code == 3
    assert "cap" in err
    assert "infeasible at n=40" in err
    assert "--kt" not in err


def test_estimate_infeasible_default_names_feasible_k_max(tmp_path, capsys):
    # the default k_max = min(n, 8) needs 4 189 550 partitions at n=12; k_max=4 fits
    graph = tmp_path / "g12.txt"
    graph.write_text("12 1\n1 2\n")
    code, _, err = run_cli(capsys, "estimate", str(graph))
    assert code == 3
    assert "--k-max 4," in err
    assert "--kt" not in err
    code, out, _ = run_cli(capsys, "estimate", str(graph), "--k-max", "4")
    assert code == 0
    assert "k_hat=" in out


def test_consistency_cli_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "k0": 1,
                "pi0": [1.0],
                "P0": [[0.5]],
                "regime": "dense",
                "n_grid": [4, 5],
                "trials": 8,
                "epsilon": 1.0,
                "k_max": 3,
                "kt_method": "exact",
                "master_seed": 5,
                "output_path": ".",
            }
        )
    )
    code, _, _ = run_cli(capsys, "consistency", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--threads", "1")
    assert code == 0
    code, _, _ = run_cli(capsys, "consistency", "--config", str(cfg), "--out", str(tmp_path / "r2"), "--threads", "6")
    assert code == 0
    assert (tmp_path / "r1" / "trials.csv").read_bytes() == (tmp_path / "r2" / "trials.csv").read_bytes()
    resolved = json.loads((tmp_path / "r1" / "resolved_config.json").read_text())
    assert resolved["master_seed"] == 5
    assert resolved["output_path"] == str(tmp_path / "r1")


def test_consistency_infeasible_names_k_max(tmp_path, capsys):
    # k_max=8 needs 4 189 550 partitions at n=12; k_max=4 fits under the cap
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "k0": 1,
                "pi0": [1.0],
                "P0": [[0.5]],
                "regime": "dense",
                "n_grid": [12],
                "trials": 1,
                "epsilon": 1.0,
                "k_max": 8,
                "kt_method": "exact",
                "master_seed": 1,
                "output_path": ".",
            }
        )
    )
    code, _, err = run_cli(capsys, "consistency", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 3
    assert "--k-max 4," in err
    assert "--kt" not in err


def test_estimate_mc_reports_ess(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("6 3\n1 2\n2 3\n4 5\n")
    code, out, _ = run_cli(
        capsys, "estimate", str(graph), "--k-max", "2", "--kt", "mc:500", "--out", str(tmp_path / "e")
    )
    assert code == 0
    assert " ess=500.0" in out.splitlines()[1]  # k=1: every draw has the same weight
    rows = json.loads((tmp_path / "e" / "estimate.json").read_text())["rows"]
    assert rows[0]["ess"] == pytest.approx(500.0, rel=1e-9)
    assert 1.0 <= rows[1]["ess"] <= 500.0


def test_verify_gamma_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "gamma_ineq", "--count", "200", "--seed", "1")
    assert code == 0
    assert "all checks passed" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from ktsbm import cli
    from ktsbm.experiments import SuiteReport

    monkeypatch.setattr(
        cli, "gamma_suite", lambda **kw: SuiteReport("gamma_ineq", (("forced", False, "x"),))
    )
    code, out, err = run_cli(capsys, "verify", "gamma_ineq")
    assert code == 4
    assert "FAIL" in out


def test_gap_cli(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"pi": [0.5, 0.5], "P": [[0.8, 0.2], [0.2, 0.8]]}))
    code, out, _ = run_cli(capsys, "gap", str(params))
    assert code == 0
    assert "dense gap: 0.096372379" in out
    assert "best merge pair: (1, 2)" in out


def test_gap_cli_reducible_warning(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"pi": [0.5, 0.5], "S0": [[0.5, 0.5], [0.5, 0.5]]}))
    code, out, _ = run_cli(capsys, "gap", str(params))
    assert code == 0
    assert "reducible" in out


def test_gap_cli_validation(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"pi": [0.5, 0.5]}))
    code, _, err = run_cli(capsys, "gap", str(params))
    assert code == 2
