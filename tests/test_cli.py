import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hedgelab
from hedgelab import cli
from hedgelab.cli import EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_OK, EXIT_TASK_FAILED, main
from hedgelab.fixed import FixedLearner
from hedgelab.interval import interval_bound
from hedgelab.lab import TRACE_COLUMNS, gen_adversarial, rng_for
from hedgelab.sleeping import SleepingRegistry
from hedgelab.tree import (
    PruningTree,
    generate_tree_data,
    load_tree,
    load_tree_data,
    random_template_tree,
    save_tree,
    save_tree_data,
)


def _raise_for_seed_1(cfg, algo, seed, out_dir):
    """A stand-in for cli._run_task whose seed-1 task raises; module-level, so
    that the pool can send it to its workers."""
    if seed == 1:
        raise RuntimeError("seed 1")
    return _RUN_TASK(cfg, algo, seed, out_dir)


_RUN_TASK = cli._run_task


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

    @pytest.mark.parametrize(
        "key,overrides",
        [
            ("n", {"n": 2.7}), ("n", {"n": False}), ("t", {"t": True}), ("t", {"t": 5.5}), ("k", {"k": 1.5}),
            ("seeds", {"seeds": True}), ("seed", {"seed": [0.5]}), ("seed", {"seed": [True]}),
        ],
    )
    def test_non_integral_or_boolean_integer_value(self, tmp_path, capsys, key, overrides):
        assert self._run_with_config(tmp_path, json.dumps(overrides)) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"error: {key} must be integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_count_is_bad_config(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--out", str(out)]
        code = run_cli(args, env_threads=value)
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ANH_THREADS")
        assert "Traceback" not in err
        assert not out.exists()

    def test_integral_seeds_count(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": 3.0, "n": 3.0}))
        args = ["run", "--scenario", "adversarial", "--t", "5", "--config", str(cfg_path), "--out", str(out)]
        assert run_cli(args) == EXIT_OK
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["seeds"], config["n"]) == ([0, 1, 2], 3)

    @pytest.mark.parametrize("key,overrides", [("mu", {"mu": "abc"}), ("k", {"k": "x"}), ("alpha", {"alpha": [0.2]})])
    def test_numeric_key_checked_where_the_scenario_ignores_it(self, tmp_path, capsys, key, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--config", str(cfg_path)]
        assert run_cli(args + ["--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        assert self._run_with_config(tmp_path, json.dumps({"alhpa": 0.3})) == EXIT_BAD_CONFIG
        assert "alhpa" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "key,overrides",
        [
            ("alpha", {"scenario": "stochastic", "alpha": True, "mu": 0}), ("mu", {"mu": True}),
            ("eps", {"eps": [True]}), ("eps", {"eps": True}),
        ],
    )
    def test_boolean_is_not_a_real(self, tmp_path, capsys, key, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--config", str(cfg_path)]
        assert run_cli(args + ["--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be float, got True") and err.count("\n") == 1, err
        assert not out.exists()

    def test_scalar_seed_is_a_one_item_list(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3.0}))
        out = tmp_path / "out"
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--config", str(cfg_path)]
        assert run_cli(args + ["--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["config"]["seeds"] == [3]

    @pytest.mark.parametrize("key,flags,overrides", [
        ("algos", ["--algo", "ada,hedge,ada"], {"algos": ["ada", "ada"]}),
        ("seeds", ["--seed", "3,3"], {"seed": [3, 3.0]}),
        ("eps", ["--eps", "0.1,0.1"], {"eps": [0.1, 0.1]}),
    ])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_repeated_algo_or_seed_is_bad_config(self, tmp_path, capsys, key, flags, overrides, via):
        out = tmp_path / "out"
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--out", str(out)]
        if via == "flags":
            args += flags
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(overrides))
            args += ["--config", str(cfg_path)]
        assert run_cli(args) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must not repeat") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_out_that_is_no_directory_is_bad_config(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if under else blocker
        args = ["run", "--scenario", "adversarial", "--n", "2", "--t", "5", "--out", str(out)]
        assert run_cli(args) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and err.count("\n") == 1, err
        assert blocker.read_text() == "not a directory\n"


class TestTreeFiles:
    @pytest.mark.parametrize("missing", ["tree", "data"])
    def test_missing_file_is_bad_config(self, tmp_path, capsys, tree_fixture, missing):
        paths = dict(zip(("tree", "data"), map(str, tree_fixture)))
        paths[missing] = str(tmp_path / "absent")
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", paths["tree"], "--data", paths["data"],
             "--out", str(out)]
        )
        assert code == EXIT_BAD_CONFIG
        assert f"error: {missing} file" in capsys.readouterr().err
        assert not out.exists()

    SPLIT_ON_F3 = {
        "root": "r",
        "nodes": [
            {"id": "r", "feature": 3, "threshold": 0.5, "children": ["a", "b"]},
            {"id": "a", "prediction": 0.25},
            {"id": "b", "prediction": 0.75},
        ],
    }

    @pytest.mark.parametrize(
        "tree_text,data_text,message",
        [
            ("{not json", None, "tree file .* does not parse: JSONDecodeError"),
            ('{"nodes": 3}', None, "tree file .* does not parse: TypeError"),
            (None, "z\n0.5\n", "data file .* has no feature f"),
            (json.dumps(SPLIT_ON_F3), "f0,f1,f2,z\n0.1,0.2,0.3,0.5\n", "data file .* has no feature f3,"),
            (None, "f0,f2,z\n0.1,0.2,0.5\n", "data file .* does not parse: ValueError: feature columns must be f0..f1"),
            (None, "f0,f1,z\n0.5,0.5,1.5\n", "data file .* does not parse: ValueError: target 1.5 outside"),
            (None, "f0,f1,z\n0.5," + "5" * 200_000 + ",0.5\n", "data file .* does not parse: Error: field larger"),
        ],
        ids=["not-json", "nodes-not-a-list", "no-features", "no-feature-3", "column-gap", "target-1.5", "field-too-large"],
    )
    def test_malformed_content_is_bad_config(self, tmp_path, capsys, tree_fixture, tree_text, data_text, message):
        paths = dict(zip(("tree", "data"), map(str, tree_fixture)))
        for key, text in (("tree", tree_text), ("data", data_text)):
            if text is not None:
                paths[key] = str(tmp_path / f"bad_{key}")
                Path(paths[key]).write_text(text)
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", paths["tree"], "--data", paths["data"],
             "--seed", "0,1", "--out", str(out)],
            env_threads="2",
        )
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.match(f"error: {message}", err), err
        assert not out.exists()


    @pytest.mark.parametrize("value,code", [("nan", EXIT_BAD_CONFIG), ("inf", EXIT_OK), ("-inf", EXIT_OK)])
    def test_nan_feature_is_bad_config(self, tmp_path, capsys, tree_fixture, value, code):
        tree_path, data_path = tree_fixture
        lines = data_path.read_text().splitlines()
        lines[5] = ",".join([value, *lines[5].split(",")[1:]])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        args = ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(bad)]
        assert run_cli(args + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == EXIT_BAD_CONFIG:
            assert re.match("error: data file .* does not parse: ValueError: feature value NaN on line 6", err), err
            assert err.count("\n") == 1 and not out.exists()

    ONE_SPLIT = {"root": "r", "nodes": [{"id": "a", "prediction": 0.25}, {"id": "b", "prediction": 0.75}]}

    @pytest.mark.parametrize(
        "split,message",
        [
            ({"feature": 0.5, "threshold": 0.5}, "needs a feature index >= 0, got 0.5"),
            ({"feature": True, "threshold": 0.5}, "needs a feature index >= 0, got True"),
            ({"feature": 0, "threshold": "0.5"}, "needs a numeric threshold, got '0.5'"),
        ],
        ids=["fractional-feature", "bool-feature", "string-threshold"],
    )
    def test_bad_split_is_bad_config(self, tmp_path, capsys, tree_fixture, split, message):
        tree = {**self.ONE_SPLIT, "nodes": [{"id": "r", "children": ["a", "b"], **split}, *self.ONE_SPLIT["nodes"]]}
        tree_path = tmp_path / "bad_tree.json"
        tree_path.write_text(json.dumps(tree))
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(tree_fixture[1]),
             "--out", str(out)]
        )
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: tree file ") and err.count("\n") == 1, err
        assert f"does not parse: ValueError: internal node 'r' {message}" in err
        assert not out.exists()


class TestTraceCells:
    def test_floats_as_repr_and_nan_empty(self):
        values = np.array([0.1, np.nan, np.inf, -0.0, 1e-300, 2.0 / 3.0])
        assert cli._fmt_column(values) == ["0.1", "", "inf", "-0.0", "1e-300", repr(2.0 / 3.0)]
        assert cli._fmt_column([0.5, float("nan")]) == ["0.5", ""]

    def test_trace_file_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        cli._write_trace(path, "ada", [[0.25, 0.5], [0.25, 0.75], [np.nan, 1.0], None, None, None, [3.0, 4.0]])
        header = ",".join(TRACE_COLUMNS)
        assert path.read_text() == f"{header}\n1,ada,0.25,0.25,,,,,3.0\n2,ada,0.5,0.75,1.0,,,,4.0\n"


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

    def test_bound_column_is_the_point_mass_bound(self, tmp_path):
        # ada: the fixed learner's bound for a point mass on the best expert so far;
        # tv: the interval certificate of the copy of that expert born at round 1
        n, t_len, seed = 4, 120, 3
        args = ["run", "--scenario", "adversarial", "--algo", "ada,tv", "--n", str(n), "--t", str(t_len)]
        assert run_cli(args + ["--seed", str(seed), "--out", str(tmp_path)]) == EXIT_OK
        losses = gen_adversarial(n, t_len, seed).losses
        best = np.argmin(np.cumsum(losses, axis=0), axis=1)
        rows = {}
        for algo in ("ada", "tv"):
            lines = (tmp_path / f"trace_{algo}_seed{seed}.csv").read_text().splitlines()[1:]
            rows[algo] = [line.split(",") for line in lines]
        tv_player = np.array([float(row[2]) for row in rows["tv"]])
        ada = FixedLearner(np.full(n, 1.0 / n))
        for t, lvec in enumerate(losses, start=1):
            ada.update(lvec)
            if t in (1, t_len // 2, t_len):
                i = int(best[t - 1])
                expected = {"ada": ada.regret_bound(np.eye(n)[i]), "tv": interval_bound(tv_player, losses, 1, t, i)}
                for algo, value in expected.items():
                    assert float(rows[algo][t - 1][8]) == pytest.approx(value, rel=1e-12, abs=0.0), (algo, t)

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

    def test_tree_trace_matches_mapping_api_replay(self, tmp_path, tree_fixture):
        tree_path, data_path = tree_fixture
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(data_path),
             "--loss", "absolute", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "trace_ada_seed0.csv").read_text().splitlines()
        assert lines[0].split(",") == TRACE_COLUMNS
        tree, reg, cum = load_tree(tree_path), SleepingRegistry(), 0.0
        data = load_tree_data(data_path)
        assert len(lines) == len(data) + 1
        for t, ((x, z), line) in enumerate(zip(data, lines[1:]), start=1):
            path = tree.traverse(x)
            player_loss = reg.update({e: (1.0, abs(tree.nodes[e[1]].prediction - z)) for e in path})
            cum += player_loss
            best = reg.best_id()
            row = [player_loss, cum, reg.state(best).R, "", reg.potential_sum(), reg.certificate(),
                   reg.regret_bound({best: 1.0})]
            assert line.split(",") == [str(t), "ada", *(v if v == "" else repr(v) for v in row)]

    def test_tree_outputs_do_not_depend_on_the_record_block(self, tmp_path, tree_fixture, monkeypatch):
        # 150 rounds: two full 64-round blocks and a tail, against blocks of one round
        tree_path, data_path = tree_fixture
        args = ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(data_path)]
        assert cli.RECORD_BLOCK == 64
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        monkeypatch.setattr(cli, "RECORD_BLOCK", 1)
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("trace_ada_seed0.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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


class TestFailedTasks:
    ARGS = ["run", "--scenario", "adversarial", "--algo", "ada,hedge", "--n", "3", "--t", "20", "--seeds", "2"]

    def test_clean_run_has_no_failed_tasks_key(self, tmp_path):
        assert run_cli(self.ARGS + ["--out", str(tmp_path)]) == EXIT_OK
        assert "failed_tasks" not in json.loads((tmp_path / "summary.json").read_text())

    def test_serial_failure_writes_summary(self, tmp_path, capsys, monkeypatch):
        real = cli._run_task

        def flaky(cfg, algo, seed, out_dir):
            if (algo, seed) == ("hedge", 1):
                raise RuntimeError("boom")
            return real(cfg, algo, seed, out_dir)

        monkeypatch.setattr(cli, "_run_task", flaky)
        assert run_cli(self.ARGS + ["--out", str(tmp_path)]) == EXIT_TASK_FAILED
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failed_tasks"] == [{"algo": "hedge", "seed": 1, "error": "RuntimeError: boom"}]
        assert [(r["algo"], r["seed"]) for r in summary["results"]] == [("ada", 0), ("ada", 1), ("hedge", 0)]
        assert summary["aggregates"]["hedge"]["runs"] == 1
        assert "algo hedge seed 1: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_raising_task_writes_summary(self, tmp_path, capsys, tree_fixture, threads, monkeypatch):
        # serially or in the pool, where each task gets the parsed tree and data
        monkeypatch.setattr(cli, "_run_task", _raise_for_seed_1)
        tree_path, data_path = tree_fixture
        out = tmp_path / "out"
        code = run_cli(
            ["run", "--scenario", "tree", "--algo", "ada", "--tree", str(tree_path), "--data", str(data_path),
             "--seed", "0,1", "--out", str(out)],
            env_threads=threads,
        )
        assert code == EXIT_TASK_FAILED
        summary = json.loads((out / "summary.json").read_text())
        assert [(r["algo"], r["seed"]) for r in summary["results"]] == [("ada", 0)]
        assert summary["failed_tasks"] == [{"algo": "ada", "seed": 1, "error": "RuntimeError: seed 1"}]
        assert summary["config"]["tree"] == str(tree_path) and summary["config"]["data"] == str(data_path)
        assert (out / "trace_ada_seed0.csv").is_file()
        err = capsys.readouterr().err
        assert "algo ada seed 1: RuntimeError: seed 1" in err and "algo ada seed 0" not in err


class TestColdStart:
    def test_run_never_imports_scipy(self, tmp_path, tree_fixture):
        """A run loads no scipy; only the interval-cover LP oracle imports it."""
        tree_path, data_path = tree_fixture
        script = textwrap.dedent(
            f"""
            import sys
            from hedgelab import cli
            from hedgelab.lab import decomposition_bruteforce, decomposition_value

            shifting = ["run", "--scenario", "shifting", "--algo", "tv,ada,hedge", "--n", "3", "--t", "30",
                        "--k", "2", "--alpha", "0.3", "--out", {str(tmp_path / "shifting")!r}]
            tree = ["run", "--scenario", "tree", "--algo", "ada", "--tree", {str(tree_path)!r},
                    "--data", {str(data_path)!r}, "--out", {str(tmp_path / "tree")!r}]
            assert cli.main(shifting) == 0 and cli.main(tree) == 0
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded[:5]
            v = [1.0, 3.0, 2.0, 2.5]
            assert abs(decomposition_bruteforce(v) - decomposition_value(v)) < 1e-9
            assert "scipy.optimize" in sys.modules
            """
        )
        src = str(Path(hedgelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "ANH_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestSelfcheck:
    def test_passes_clean(self, capsys):
        assert run_cli(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_mutated_weight_fails(self, capsys):
        assert run_cli(["selfcheck", "--mutate-weight", "1.01"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out
