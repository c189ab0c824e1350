import json
import os

import pytest

from hedgelab.cli import EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_OK, main
from hedgelab.lab import TRACE_COLUMNS, rng_for
from hedgelab.tree import (
    PruningTree,
    generate_tree_data,
    random_template_tree,
    save_tree,
    save_tree_data,
)


def run_cli(args, env_threads="1"):
    old = os.environ.get("ANH_THREADS")
    os.environ["ANH_THREADS"] = env_threads
    try:
        return main(args)
    finally:
        if old is None:
            os.environ.pop("ANH_THREADS", None)
        else:
            os.environ["ANH_THREADS"] = old


@pytest.fixture
def tree_fixture(tmp_path):
    rng = rng_for(42, 2)
    tree = random_template_tree(2, 2, rng)
    internal = sorted(i for i in tree.internal_ids if i != tree.root)
    pruning = PruningTree(frozenset(internal[:1]))
    data = generate_tree_data(tree, pruning, 150, 2, rng)
    tree_path = tmp_path / "tree.json"
    data_path = tmp_path / "data.csv"
    save_tree(tree, tree_path)
    save_tree_data(data, data_path)
    return tree_path, data_path


class TestArgHandling:
    def test_no_args_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "nonsense"])

    def test_missing_params_bad_config(self, tmp_path, capsys):
        code = run_cli(["run", "--scenario", "adversarial", "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG
        assert "error" in capsys.readouterr().err

    def test_bad_algo_bad_config(self, tmp_path):
        code = run_cli(
            ["run", "--scenario", "adversarial", "--algo", "sgd", "--n", "2", "--t", "5", "--out", str(tmp_path)]
        )
        assert code == EXIT_BAD_CONFIG

    def test_shifting_requires_k(self, tmp_path):
        code = run_cli(
            [
                "run", "--scenario", "shifting", "--algo", "ada", "--n", "3", "--t", "10",
                "--alpha", "0.2", "--mu", "0.3", "--k", "0", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_BAD_CONFIG

    def test_tree_requires_paths(self, tmp_path):
        code = run_cli(["run", "--scenario", "tree", "--algo", "ada", "--out", str(tmp_path)])
        assert code == EXIT_BAD_CONFIG

    def test_config_file_overrides_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t": 7, "seeds": [3]}))
        out = tmp_path / "out"
        code = run_cli(
            [
                "run", "--scenario", "adversarial", "--algo", "ada", "--n", "2", "--t", "999",
                "--config", str(cfg_path), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["t"] == 7
        assert (out / "trace_ada_seed3.csv").exists()

    def test_bad_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = run_cli(
            ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_BAD_CONFIG

    def _run_with_config(self, tmp_path, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        return run_cli(
            ["run", "--scenario", "shifting", "--n", "2", "--t", "5", "--k", "2", "--alpha", "0.2",
             "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )

    def test_non_numeric_eps_flag(self, tmp_path, capsys):
        code = run_cli(
            ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--eps", "abc", "--out", str(tmp_path)]
        )
        assert code == EXIT_BAD_CONFIG
        assert "error: eps" in capsys.readouterr().err

    def test_non_numeric_config_value(self, tmp_path, capsys):
        assert self._run_with_config(tmp_path, json.dumps({"n": "abc"})) == EXIT_BAD_CONFIG
        assert "error: n" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        assert self._run_with_config(tmp_path, json.dumps([{"n": 3}])) == EXIT_BAD_CONFIG
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [{"algos": None}, {"eps": []}, {"seed": ["x"]}, {"seed": [-1]}, {"t": [5]}, {"out": 5}])
    def test_malformed_config_value(self, tmp_path, capsys, overrides):
        assert self._run_with_config(tmp_path, json.dumps(overrides)) == EXIT_BAD_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        assert self._run_with_config(tmp_path, json.dumps({"alhpa": 0.3})) == EXIT_BAD_CONFIG
        assert "alhpa" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRunOutputs:
    def test_uniform_first_round_across_algos(self, tmp_path):
        # N=2, T=1: every algorithm plays (.5, .5), so player losses agree
        code = run_cli(
            [
                "run", "--scenario", "adversarial", "--algo", "ada,dt,hedge,tv",
                "--n", "2", "--t", "1", "--seed", "7", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        vals = {}
        for algo in ("ada", "dt", "hedge", "tv"):
            lines = (tmp_path / f"trace_{algo}_seed7.csv").read_text().splitlines()
            assert lines[0] == ",".join(TRACE_COLUMNS)
            vals[algo] = lines[1].split(",")[2]
        assert len(set(vals.values())) == 1

    def test_trace_schema_and_certificates(self, tmp_path):
        code = run_cli(
            [
                "run", "--scenario", "adversarial", "--algo", "ada", "--n", "3", "--t", "50",
                "--seed", "1", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "trace_ada_seed1.csv").read_text().splitlines()
        assert len(lines) == 51
        header = lines[0].split(",")
        assert header == TRACE_COLUMNS
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["potential_sum"]) <= float(row["certificate_B"]) * (1 + 1e-9)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["invariant_failures"] == 0

    def test_hedge_columns_empty(self, tmp_path):
        run_cli(
            ["run", "--scenario", "adversarial", "--algo", "hedge", "--n", "3", "--t", "5",
             "--seed", "2", "--out", str(tmp_path)]
        )
        lines = (tmp_path / "trace_hedge_seed2.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert row[6] == "" and row[7] == "" and row[8] == ""

    def test_stochastic_summary_fields(self, tmp_path):
        code = run_cli(
            [
                "run", "--scenario", "stochastic", "--algo", "ada", "--n", "5", "--t", "2000",
                "--alpha", "0.3", "--mu", "0.2", "--seeds", "2", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["results"]) == 2
        for res in summary["results"]:
            assert "regret_designated_best" in res
            assert "plateau_ratio" in res

    def test_shifting_summary_fields(self, tmp_path):
        code = run_cli(
            [
                "run", "--scenario", "shifting", "--algo", "tv,hedge", "--n", "4", "--t", "300",
                "--k", "2", "--alpha", "0.3", "--mu", "0.2", "--seed", "5", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        tv_res = [r for r in summary["results"] if r["algo"] == "tv"][0]
        assert "kshift_regret" in tv_res and "kshift_certificate_sum" in tv_res
        assert tv_res["kshift_regret"] <= 2 * tv_res["kshift_certificate_sum"]
        hedge_res = [r for r in summary["results"] if r["algo"] == "hedge"][0]
        assert "kshift_certificate_sum" not in hedge_res

    def test_tree_scenario_summary(self, tmp_path, tree_fixture):
        tree_path, data_path = tree_fixture
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path),
             "--data", str(data_path), "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        res = summary["results"][0]
        assert res["best_pruning_loss"] == pytest.approx(0.0, abs=1e-12)
        assert res["best_pruning_leaves"] >= 1
        assert res["tree_regret"] >= -1e-9
        assert res["edges_seen"] <= 150 * 2

    def test_deterministic_outputs(self, tmp_path):
        args = [
            "run", "--scenario", "stochastic", "--algo", "ada,hedge", "--n", "4", "--t", "200",
            "--alpha", "0.25", "--mu", "0.25", "--seeds", "2",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == EXIT_OK
        assert run_cli(args + ["--out", str(out2)], env_threads="2") == EXIT_OK
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tv_horizon_cap(self, tmp_path):
        code = run_cli(
            ["run", "--scenario", "adversarial", "--algo", "tv", "--n", "2", "--t", "20001",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_BAD_CONFIG


class TestSelfcheck:
    def test_passes_clean(self, capsys):
        assert run_cli(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_mutated_weight_fails(self, capsys):
        assert run_cli(["selfcheck", "--mutate-weight", "1.01"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out
