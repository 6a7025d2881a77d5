"""Command-line interface: payload shapes, exit codes, determinism."""

import json
import os
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

import ivpaudit
from ivpaudit import generic, intrinsic, load_structure, load_system, obsv
from ivpaudit.cli import main
from conftest import write_system_file


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, schema_name):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    payload = json.loads(out)
    schema = json.loads(
        (files("ivpaudit") / "schemas" / f"{schema_name}.json").read_text()
    )
    jsonschema.validate(payload, schema)
    return payload


class TestAudit:
    def test_whole_system_summary(self, capsys, file_line2_sum):
        payload = run_json(capsys, ["audit", "--system", file_line2_sum], "audit")
        assert payload["whole_vector_private"] is True
        assert payload["rank_Oob"] == 1
        assert payload["index"] == 0
        assert "nodes" not in payload

    def test_node_verdicts_one_based(self, capsys, file_line2_sum):
        payload = run_json(
            capsys,
            ["audit", "--system", file_line2_sum, "--node", "1,2"],
            "audit",
        )
        nodes = payload["nodes"]
        assert [v["node"] for v in nodes] == [1, 2]
        assert all(v["private"] for v in nodes)

    def test_disclosure_set_one_based(self, capsys, file_struct_line3, tmp_path):
        # instantiate the all-ones configuration through the structure file
        from ivpaudit import instantiate, load_structure, save_system

        system = instantiate(load_structure(file_struct_line3), np.ones(5))
        path = str(tmp_path / "line3_ones.json")
        save_system(system, path)
        payload = run_json(
            capsys,
            ["audit", "--system", path, "--node", "1", "--public", "3"],
            "audit",
        )
        verdict = payload["nodes"][0]
        assert verdict["node"] == 1
        assert verdict["P"] == [3]
        assert verdict["private"] is False

    def test_one_bundle_per_job(self, capsys, monkeypatch, file_struct_line3, tmp_path):
        from ivpaudit import instantiate, save_system

        system = instantiate(load_structure(file_struct_line3), np.ones(5))
        path = str(tmp_path / "line3_ones.json")
        save_system(system, path)
        calls = []
        build = obsv.build_bundle

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for module in (ivpaudit, obsv, intrinsic, ivpaudit.cli, ivpaudit.dp, generic):
            monkeypatch.setattr(module, "build_bundle", counted)
        payload = run_json(
            capsys, ["audit", "--system", path, "--node", "1,2", "--public", "3"], "audit"
        )
        assert len(calls) == 1
        monkeypatch.undo()
        system = load_system(path)
        assert payload["whole_vector_private"] is intrinsic.whole_vector_private(system).private
        assert payload["index"] == intrinsic.privacy_index(system).index
        assert payload["nodes"] == [
            intrinsic.node_private(system, i, (2,)).to_dict(one_based=True) for i in (0, 1)
        ]

    def test_rank_tol_flips_audit(self, capsys, tmp_path):
        path = write_system_file(
            tmp_path,
            "weak_sensor.json",
            {"n": 2, "m": 2, "A": [[0, 0], [0, 0]], "C": [[1, 0], [0, 1e-13]]},
        )
        argv = ["audit", "--system", path, "--node", "2"]
        default = run_json(capsys, argv, "audit")
        loose = run_json(capsys, argv + ["--rank-tol", "1e-10"], "audit")
        assert (default["whole_vector_private"], default["index"]) == (False, -1)
        assert default["nodes"][0]["private"] is False
        assert (loose["whole_vector_private"], loose["index"]) == (True, 0)
        assert loose["nodes"][0]["private"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_rank_tol_exits_2(self, capsys, file_line2_first, tol):
        code, out, err = run_cli(
            capsys, ["audit", "--system", file_line2_first, "--node", "1", "--rank-tol", tol]
        )
        assert (code, out) == (2, "")
        assert "rank tolerance" in err

    def test_node_range_and_disclosure_exit_2(self, capsys, file_line2_sum):
        code, _, err = run_cli(
            capsys, ["audit", "--system", file_line2_sum, "--node", "1", "--public", "1"]
        )
        assert code == 2
        assert "disclosure" in err
        code, _, err = run_cli(capsys, ["audit", "--system", file_line2_sum, "--node", "3"])
        assert code == 2
        assert "range" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["audit", "--system", str(tmp_path / "no.json")])
        assert code == 2
        assert "error" in err

    def test_zero_node_index_exits_2(self, capsys, file_line2_sum):
        code, _, err = run_cli(
            capsys, ["audit", "--system", file_line2_sum, "--node", "0"]
        )
        assert code == 2
        assert "1-based" in err


class TestCalibrate:
    def test_floor_and_table(self, capsys, file_line2_first):
        payload = run_json(
            capsys,
            [
                "calibrate",
                "--system",
                file_line2_first,
                "--epsilon",
                "1",
                "--delta",
                "0.05",
                "--epsilon-grid",
                "0.5,1,2",
            ],
            "calibrate",
        )
        assert payload["sigma_omega_floor"] == pytest.approx(1.9070400457036372, rel=1e-12)
        assert [row["epsilon"] for row in payload["delta_min_table"]] == [0.5, 1.0, 2.0]
        deltas = [row["delta_min"] for row in payload["delta_min_table"]]
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[1] <= 0.05 + 1e-9

    def test_empty_grid_exits_2(self, capsys, file_line2_first):
        code, _, err = run_cli(
            capsys,
            [
                "calibrate",
                "--system",
                file_line2_first,
                "--epsilon",
                "1",
                "--delta",
                "0.05",
                "--epsilon-grid",
                ",",
            ],
        )
        assert code == 2
        assert "grid" in err

    def test_bad_grid_entry_exits_2(self, capsys, file_line2_first):
        code, _, err = run_cli(
            capsys,
            [
                "calibrate",
                "--system",
                file_line2_first,
                "--epsilon",
                "1",
                "--delta",
                "0.05",
                "--epsilon-grid",
                "0.5,abc",
            ],
        )
        assert code == 2
        assert "epsilon-grid" in err

    def test_one_pass_per_job(self, capsys, monkeypatch, file_line2_first):
        counts = {"build_bundle": 0, "_noise_covariance": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        bundle = counted("build_bundle", obsv.build_bundle)
        for module in (ivpaudit, obsv, intrinsic, ivpaudit.cli, ivpaudit.dp, generic):
            monkeypatch.setattr(module, "build_bundle", bundle)
        covariance = counted("_noise_covariance", ivpaudit.dp._noise_covariance)
        monkeypatch.setattr(ivpaudit.dp, "_noise_covariance", covariance)
        grid = [0.5, 1.0, 2.0]
        payload = run_json(
            capsys,
            [
                "calibrate",
                "--system",
                file_line2_first,
                "--epsilon",
                "1",
                "--delta",
                "0.05",
                "--epsilon-grid",
                ",".join(map(str, grid)),
            ],
            "calibrate",
        )
        assert counts == {"build_bundle": 1, "_noise_covariance": 1}
        monkeypatch.undo()
        system = load_system(file_line2_first)
        budget = ivpaudit.DpBudget(epsilon=1, delta=0.05, d=1.0, N=1)
        floor = ivpaudit.calibrate_sigma_omega(system, budget)
        calibrated = ivpaudit.LinearSystem(
            n=2, m=1, A=system.A, C=system.C, noise=ivpaudit.NoiseModel.iid(1.0, floor)
        )
        assert payload == {
            "sigma_omega_floor": floor,
            "kappa": ivpaudit.kappa(1, 0.05),
            "norm_OT": float(np.linalg.norm(obsv.build_bundle(system).O_T, 2)),
            "delta_min_table": [
                {"epsilon": eps, "delta_min": ivpaudit.delta_min(calibrated, eps, 1.0, 1)}
                for eps in grid
            ],
        }

    def test_bad_budget_exits_2(self, capsys, file_line2_first):
        code, _, err = run_cli(
            capsys,
            ["calibrate", "--system", file_line2_first, "--epsilon", "1", "--delta", "0.9"],
        )
        assert code == 2


class TestCheckDp:
    def test_satisfied_verdict(self, capsys, file_line2_first):
        payload = run_json(
            capsys,
            ["check-dp", "--system", file_line2_first, "--epsilon", "3", "--delta", "0.05"],
            "check_dp",
        )
        assert payload["satisfied"] is True
        assert payload["refined_used"] is False
        assert payload["lhs"] == pytest.approx(1.0)

    def test_refined_flag(self, capsys, file_line2_first):
        payload = run_json(
            capsys,
            [
                "check-dp",
                "--system",
                file_line2_first,
                "--epsilon",
                "3",
                "--delta",
                "0.05",
                "--refined",
            ],
            "check_dp",
        )
        assert payload["refined_used"] is True

    def test_singular_covariance_exits_3(self, capsys, file_line2_sum):
        code, _, err = run_cli(
            capsys,
            [
                "check-dp",
                "--system",
                file_line2_sum,
                "--epsilon",
                "1",
                "--delta",
                "0.05",
                "--refined",
            ],
        )
        assert code == 3
        assert "conditioning" in err


class TestGeneric:
    def test_generic_check_payload(self, capsys, file_struct_line3):
        payload = run_json(
            capsys,
            ["generic-check", "--structure", file_struct_line3, "--node", "1", "--seed", "7"],
            "generic_check",
        )
        assert payload["node"] == 1
        assert payload["generically_private"] is False
        assert payload["estimate"]["n_P_ob"] == 3
        assert payload["estimate"]["agreement"] == 1.0

    def test_generic_check_deterministic(self, capsys, file_struct_line3):
        argv = ["generic-check", "--structure", file_struct_line3, "--node", "2", "--seed", "9"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_generic_check_requires_seed(self, capsys, file_struct_line3):
        with pytest.raises(SystemExit) as exc:
            main(["generic-check", "--structure", file_struct_line3, "--node", "1"])
        assert exc.value.code == 2

    def test_generic_index_payload(self, capsys, file_struct_line3):
        payload = run_json(
            capsys,
            ["generic-index", "--structure", file_struct_line3, "--seed", "7"],
            "generic_index",
        )
        assert payload["index"] == -1
        assert payload["rank_Oob"] == 3
        assert payload["agreement"] == 1.0
        assert payload["method"] == "generic"

    def test_generic_index_samples_once(self, capsys, monkeypatch, file_struct_line3):
        calls = []
        estimate = generic.estimate_generic_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(generic, "estimate_generic_rank", counted)
        payload = run_json(
            capsys,
            ["generic-index", "--structure", file_struct_line3, "--seed", "7", "--samples", "5"],
            "generic_index",
        )
        assert len(calls) == 1
        structure = load_structure(file_struct_line3)
        want = generic.generic_privacy_index(structure, samples=5, seed=7).to_dict()
        want.update({"samples": 5, "seed": 7, "agreement": 1.0})
        assert payload == want

    def test_node_out_of_range_exits_2(self, capsys, file_struct_line3):
        code, _, err = run_cli(
            capsys,
            ["generic-check", "--structure", file_struct_line3, "--node", "9", "--seed", "7"],
        )
        assert code == 2


class TestAttack:
    def test_non_identifiable_payload(self, capsys, file_line2_sum):
        payload = run_json(
            capsys,
            ["attack", "--system", file_line2_sum, "--x0", "2,1", "--N", "10", "--seed", "4"],
            "attack",
        )
        assert payload["identifiable"] is False
        assert payload["covariance_estimate"] == "non-identifiable"
        assert payload["x0_hat"] == pytest.approx([1.5, 1.5], abs=1e-9)

    def test_identifiable_payload(self, capsys, file_line2_first):
        payload = run_json(
            capsys,
            ["attack", "--system", file_line2_first, "--x0", "2,1", "--N", "2000", "--seed", "4"],
            "attack",
        )
        assert payload["identifiable"] is True
        assert payload["x0_hat"] == pytest.approx([2.0, 1.0], abs=0.2)
        assert payload["null_space"] is None

    def test_empirical_dp_attachment(self, capsys, file_line2_first, tmp_path):
        hist = str(tmp_path / "hist.csv")
        batch = str(tmp_path / "batch.csv")
        payload = run_json(
            capsys,
            [
                "attack",
                "--system",
                file_line2_first,
                "--x0",
                "2,1",
                "--N",
                "50",
                "--seed",
                "4",
                "--save-batch",
                batch,
                "--empirical-dp",
                "--adjacent",
                "1.4,1.7;1.6,1.8",
                "--runs",
                "2000",
                "--hist-csv",
                hist,
            ],
            "attack",
        )
        assert payload["batch_csv"] == batch
        report = payload["empirical_dp"]
        assert report["N_runs"] == 2000
        assert report["eps_hat"] >= 0.0
        assert report["hist_csv"] == hist
        assert os.path.exists(hist) and os.path.exists(batch)

    def test_empirical_dp_without_adjacent_exits_2(self, capsys, file_line2_first):
        code, _, err = run_cli(
            capsys,
            [
                "attack",
                "--system",
                file_line2_first,
                "--x0",
                "2,1",
                "--N",
                "10",
                "--seed",
                "4",
                "--empirical-dp",
            ],
        )
        assert code == 2
        assert "adjacent" in err


class TestSimulate:
    def test_summary_payload(self, capsys, file_line2_sum, tmp_path):
        out_csv = str(tmp_path / "y.csv")
        payload = run_json(
            capsys,
            [
                "simulate",
                "--system",
                file_line2_sum,
                "--x0",
                "2,1",
                "--N",
                "400",
                "--seed",
                "12",
                "--out",
                out_csv,
            ],
            "simulate",
        )
        assert payload["y_mean"][0] == pytest.approx(3.0, abs=1e-12)
        assert payload["y_std"][0] == pytest.approx(0.0, abs=1e-12)
        assert payload["y_std"][1] == pytest.approx(np.sqrt(2.0), abs=0.2)
        assert payload["batch_csv"] == out_csv

    def test_bad_vector_exits_2(self, capsys, file_line2_sum):
        code, _, err = run_cli(
            capsys,
            ["simulate", "--system", file_line2_sum, "--x0", "a,b", "--N", "5", "--seed", "1"],
        )
        assert code == 2

    def test_structure_file_rejected_as_system(self, capsys, file_struct_line3):
        code, _, err = run_cli(
            capsys,
            ["simulate", "--system", file_struct_line3, "--x0", "1,1,1", "--N", "5", "--seed", "1"],
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--system", "{system}", "--x0", "2,1", "--N", "5"],
        ["attack", "--system", "{system}", "--x0", "2,1", "--N", "5"],
        ["generic-check", "--structure", "{structure}", "--node", "1"],
        ["generic-index", "--structure", "{structure}"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(capsys, file_line2_sum, file_struct_line3, argv):
    argv = [a.format(system=file_line2_sum, structure=file_struct_line3) for a in argv]
    code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert err.startswith("error: seed")
    assert "Traceback" not in err and out == ""
