"""Command-line interface: payload shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ivpaudit
from ivpaudit import cli, generic, intrinsic, load_structure, load_system, obsv, sim
from ivpaudit.cli import main
from conftest import (
    chunk_rows,
    count_draws,
    force_workers,
    general_noise_system,
    iid_noise_system,
    write_system_file,
)


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

        for module in (ivpaudit, obsv, intrinsic, ivpaudit.cli, ivpaudit.dp):
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
        for module in (ivpaudit, obsv, intrinsic, ivpaudit.cli, ivpaudit.dp):
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
        assert counts == {"build_bundle": 1, "_noise_covariance": 0}
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


    @pytest.mark.parametrize("adjacent", [None, "1,x;2,3", ";"], ids=["missing", "unparsable", "empty"])
    def test_bad_adjacent_exits_before_simulating(
        self, capsys, monkeypatch, file_line2_first, tmp_path, adjacent
    ):
        calls = count_draws(monkeypatch)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [
            "attack", "--system", file_line2_first, "--x0", "2,1", "--N", "10", "--seed", "4",
            "--save-batch", str(out_dir / "batch.csv"), "--empirical-dp",
            "--hist-csv", str(out_dir / "hist.csv"),
        ]
        if adjacent is not None:
            argv.append("--adjacent=" + adjacent)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert len(calls) == 0
        assert list(out_dir.iterdir()) == []

    def test_bins_above_pooled_samples_exits_before_simulating(
        self, capsys, monkeypatch, file_line2_first
    ):
        # 2 initial values x 10 runs = 20 samples: 21 cells cannot all be
        # populated, and 1e9 would allocate gigabytes of edges per coordinate.
        calls = count_draws(monkeypatch)
        for bins in ("21", "1000000000"):
            code, out, err = run_cli(
                capsys,
                [
                    "attack", "--system", file_line2_first, "--x0", "2,1", "--N", "10",
                    "--seed", "4", "--empirical-dp", "--adjacent", "1.4,1.7;1.6,1.8",
                    "--runs", "10", "--bins", bins,
                ],
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: bins: ")
        assert calls == []

    @pytest.mark.parametrize(
        "x0, adjacent, field",
        [
            ("2,1", "1,2;nan,1", "x0_list[1]"),
            ("2,1", "1,2;1,inf", "x0_list[1]"),
            ("nan,2", "1.4,1.7;1.6,1.8", "x0"),
            ("2,-inf", "1.4,1.7;1.6,1.8", "x0"),
        ],
    )
    def test_non_finite_initial_value_exits_before_simulating(
        self, capsys, monkeypatch, file_line2_first, x0, adjacent, field
    ):
        calls = count_draws(monkeypatch)
        code, out, err = run_cli(
            capsys,
            [
                "attack", "--system", file_line2_first, "--x0", x0, "--N", "10", "--seed", "4",
                "--empirical-dp", "--adjacent", adjacent, "--runs", "1000",
            ],
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: entries must be finite")
        assert calls == []

    def test_attack_and_audit_agree_on_dense_system(self, capsys, tmp_path):
        # A dense n = 30 draw on which a separate SVD of O_T (T = 60) found a
        # null direction that the audit's O_ob does not have.
        n = 30
        system = ivpaudit.LinearSystem(
            n=n, m=1, A=np.random.default_rng(22).standard_normal((n, n)) / np.sqrt(n),
            C=np.eye(1, n), noise=ivpaudit.NoiseModel.iid(1.0, 0.5),
        )
        path = str(tmp_path / "dense30.json")
        ivpaudit.save_system(system, path)
        audit = run_json(capsys, ["audit", "--system", path], "audit")
        attack = run_json(
            capsys,
            ["attack", "--system", path, "--x0", ",".join(["1"] * n), "--T", "60",
             "--N", "100", "--seed", "1"],
            "attack",
        )
        assert audit["rank_Oob"] == n
        assert attack["identifiable"] is True
        assert attack["null_space"] is None


def test_release_outputs_name_the_stream(capsys, file_line2_first):
    for command in ("simulate", "attack"):
        payload = run_json(
            capsys,
            [command, "--system", file_line2_first, "--x0", "2,1", "--N", "3", "--seed", "1"],
            command,
        )
        assert payload["stream"] == sim.STREAM


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

    def test_sigma_t_of_another_horizon_exits_2(self, capsys, monkeypatch, tmp_path):
        # Sigma_T is 7 x 7, the side n*T + m*(T+1) at T = 1, not at T = 2.
        path = str(tmp_path / "general.json")
        ivpaudit.save_system(general_noise_system(1), path)
        calls = count_draws(monkeypatch)
        code, out, err = run_cli(
            capsys,
            ["simulate", "--system", path, "--x0", "1,1,1", "--N", "5", "--T", "2", "--seed", "1"],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: noise.SigmaT: expected side 12 ")
        assert calls == []

    def test_structure_file_rejected_as_system(self, capsys, file_struct_line3):
        code, _, err = run_cli(
            capsys,
            ["simulate", "--system", file_struct_line3, "--x0", "1,1,1", "--N", "5", "--seed", "1"],
        )
        assert code == 2


def release_system(kind: str, T: int) -> ivpaudit.LinearSystem:
    """A 3-state release system; "noise-free-y0" has sigma_omega = 0, so the
    outputs at step 0 have zero variance."""
    if kind == "iid":
        return iid_noise_system()
    system = general_noise_system(T)
    if kind == "general":
        return system
    return ivpaudit.LinearSystem(
        n=system.n, m=system.m, A=system.A, C=system.C, noise=ivpaudit.NoiseModel.iid(0.7, 0.0)
    )


def release_argv(command: str, path: str, N: int, T: int, seed: int = 11) -> list:
    return [command, "--system", path, "--x0", "0.1,0.2,0.7", "--N", str(N), "--T", str(T),
            "--seed", str(seed)]


class TestReleaseMoments:
    """``simulate`` and ``attack`` without a CSV read moments merged from the
    chunks and hold no N-row output array."""

    KINDS = ["iid", "general", "noise-free-y0"]
    SIZES = pytest.mark.parametrize("N", [1, 5, 45], ids=["one-row", "partial-chunk", "five-chunks"])

    @pytest.mark.parametrize("workers", [1, 4])
    @SIZES
    @pytest.mark.parametrize("kind", KINDS)
    def test_simulate_summary_matches_the_batch(
        self, capsys, monkeypatch, tmp_path, kind, N, workers
    ):
        T = 2
        system = release_system(kind, T)
        path = str(tmp_path / "release.json")
        ivpaudit.save_system(system, path)
        chunk_rows(monkeypatch, system, T, 8)
        force_workers(monkeypatch, workers)
        payload = run_json(capsys, release_argv("simulate", path, N, T), "simulate")
        Y = ivpaudit.simulate(system, [0.1, 0.2, 0.7], N, T, seed=11).Y
        # Zero-variance coordinates have a std of rounding size: an absolute bound.
        np.testing.assert_allclose(payload["y_mean"], Y.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(payload["y_std"], Y.std(axis=0), rtol=1e-12, atol=1e-14)
        if kind == "noise-free-y0":
            assert max(payload["y_std"][:system.m]) < 1e-14

    @pytest.mark.parametrize("workers", [1, 4])
    @SIZES
    @pytest.mark.parametrize("kind", KINDS)
    def test_attack_matches_the_library_attack(
        self, capsys, monkeypatch, tmp_path, kind, N, workers
    ):
        T = 2
        system = release_system(kind, T)
        path = str(tmp_path / "release.json")
        ivpaudit.save_system(system, path)
        chunk_rows(monkeypatch, system, T, 8)
        force_workers(monkeypatch, workers)
        payload = run_json(capsys, release_argv("attack", path, N, T), "attack")
        want = ivpaudit.mle_attack(
            system, ivpaudit.simulate(system, [0.1, 0.2, 0.7], N, T, seed=11)
        ).to_dict()
        np.testing.assert_allclose(payload["x0_hat"], want["x0_hat"], rtol=1e-12)
        if want["identifiable"]:
            np.testing.assert_allclose(
                payload["covariance_estimate"], want["covariance_estimate"], rtol=1e-12
            )
        else:
            assert payload["covariance_estimate"] == "non-identifiable"
        assert payload["residual"] == pytest.approx(want["residual"], rel=0, abs=1e-12)
        assert (payload["identifiable"], payload["null_space"]) == (
            want["identifiable"], want["null_space"]
        )
        assert (payload["N"], payload["T"], payload["seed"]) == (N, T, 11)

    @pytest.mark.parametrize("kind", ["iid", "general"])
    @pytest.mark.parametrize("command, flag", [("simulate", "--out"), ("attack", "--save-batch")])
    def test_csv_leaves_stdout_unchanged(
        self, capsys, monkeypatch, tmp_path, command, flag, kind
    ):
        T, N = 2, 45
        system = release_system(kind, T)
        path = str(tmp_path / "release.json")
        ivpaudit.save_system(system, path)
        chunk_rows(monkeypatch, system, T, 8)
        argv = release_argv(command, path, N, T)
        code, plain, err = run_cli(capsys, argv)
        assert code == 0, err
        csv_path = str(tmp_path / "batch.csv")
        code, with_csv, err = run_cli(capsys, argv + [flag, csv_path])
        assert code == 0, err
        payload = json.loads(with_csv)
        assert payload.pop("batch_csv") == csv_path
        assert json.dumps(payload, indent=2) + "\n" == plain
        want_path = tmp_path / "library.csv"
        sim.batch_to_csv(ivpaudit.simulate(system, [0.1, 0.2, 0.7], N, T, seed=11), want_path)
        assert Path(csv_path).read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize("cpus", [None, 64], ids=["machine-cpus", "64-cpus"])
    def test_no_csv_holds_no_output_array(self, capsys, monkeypatch, file_line2_first, cpus):
        # The in-flight chunk budget of
        # test_sim.py::TestChunks::test_peak_memory_is_outputs_plus_a_few_chunks,
        # with no Y.nbytes: Y would be about 98 chunk budgets, and holding a task
        # for each of its 390 chunks would also break it.
        if cpus is not None:
            monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 2**16)
        N = 400_000
        assert N * 2 * 8 >= 16 * sim.CHUNK_BYTES
        for command in ("simulate", "attack"):
            argv = [command, "--system", file_line2_first, "--x0", "2,1", "--T", "1",
                    "--seed", "0", "--N"]
            # A first run of several chunks imports what a pool of threads needs.
            assert main(argv + ["4096"]) == 0
            capsys.readouterr()
            tracemalloc.start()
            try:
                code = main(argv + [str(N)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, capsys.readouterr().err
            assert peak < 8 * sim.CHUNK_BYTES, command


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_state_guard_without_csv_exits_3_at_the_earliest_step(
    capsys, monkeypatch, tmp_path, command, workers
):
    # As in test_sim.py::TestChunks::test_state_guard_reports_earliest_step_across_chunks:
    # the first chunk passes the guard at step 152 and a later one at step 151.
    system = ivpaudit.LinearSystem(
        n=1, m=1, A=[[10.0]], C=[[1.0]], noise=ivpaudit.NoiseModel.iid(1.0, 0.0)
    )
    path = str(tmp_path / "unstable.json")
    ivpaudit.save_system(system, path)
    chunk_rows(monkeypatch, system, 400, 8)
    force_workers(monkeypatch, workers)
    with pytest.raises(ivpaudit.ConditioningError, match="at step 151$"):
        ivpaudit.simulate(system, [0.0], N=24, T=400, seed=4)
    argv = [command, "--system", path, "--x0", "0", "--N", "24", "--T", "400", "--seed", "4"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "conditioning error: state magnitude exceeded 1e+150 at step 151\n"


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


@pytest.mark.parametrize("T", ["0", "2"])
@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_initial_value_beyond_state_guard_exits_3(capsys, file_line2_sum, command, T):
    argv = [command, "--system", file_line2_sum, "--x0=1e307,1e307", "--N", "3", "--T", T,
            "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "conditioning error: state magnitude exceeded 1e+150 at step 0\n"


@pytest.mark.parametrize(
    "content, reason",
    [
        pytest.param(None, "cannot read", id="directory"),
        pytest.param(b'{"n": 1, "m": 1, "A": [[0.5]], "C": [[1.0]], "tag": "\xff"}', "invalid JSON",
                     id="not-utf8"),
        pytest.param(b'{"n": 1, "m": 1, "A": [[NaN]], "C": [[1.0]]}', "invalid JSON", id="nan"),
        pytest.param(b'{"n": 1, "m": 1, "A": [[Infinity]], "C": [[1.0]]}', "invalid JSON",
                     id="infinity"),
        pytest.param(b'{"n": 1, "m": 1, "A": [[0.5]], "C": [[-Infinity]]}', "invalid JSON",
                     id="minus-infinity"),
        pytest.param(b'{"n": 1, "m": 1, "A": [[1e400]], "C": [[1.0]]}', "invalid JSON",
                     id="overflow"),
    ],
)
def test_unreadable_or_non_strict_file_exits_2(capsys, tmp_path, content, reason):
    path = tmp_path / "sys.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, ["audit", "--system", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {reason}")


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it across jobs."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    @staticmethod
    def call(capsys, argv):
        """(exit code, stdout, stderr) of one in-process job; argparse errors included."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_parser(
        self, capsys, file_line2_first, file_line2_sum, file_struct_line3
    ):
        budget = ["--epsilon", "1", "--delta", "0.05"]
        jobs = [
            ["audit", "--system", file_line2_sum, "--node", "1,2"],
            ["generic-check", "--structure", file_struct_line3, "--node", "1"],
            ["calibrate", "--system", file_line2_first, *budget, "--epsilon-grid", "0.5,1"],
            ["audit", "--system", file_line2_sum, "--node", "0"],
            ["check-dp", "--system", file_line2_first, *budget, "--N", "3"],
            ["check-dp", "--system", file_line2_sum, *budget, "--refined"],
            ["generic-check", "--structure", file_struct_line3, "--node", "2", "--seed", "9"],
            ["generic-index", "--structure", file_struct_line3, "--seed", "7", "--samples", "3"],
            ["attack", "--system", file_line2_first, "--x0", "2,1", "--N", "20", "--seed", "4"],
            ["simulate", "--system", file_line2_sum, "--x0", "2,1", "--N", "30", "--seed", "12"],
            ["audit", "--system", file_line2_first],
        ]
        reused = [self.call(capsys, argv) for argv in jobs]
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 3, 0, 0, 0, 0, 0]
        assert "usage: ivpaudit generic-check" in reused[1][2]
        assert reused[3][2].startswith("error: ")
        assert reused[5][2].startswith("conditioning error: ")
        fresh = []
        for argv in jobs:
            cli._parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert reused == fresh

    def test_parser_built_once(self, capsys, monkeypatch, file_line2_sum, file_struct_line3):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        assert calls == []
        for argv in (
            ["audit", "--system", file_line2_sum],
            ["generic-index", "--structure", file_struct_line3, "--seed", "7", "--samples", "3"],
            ["audit", "--system", file_line2_sum, "--node", "0"],
        ):
            self.call(capsys, argv)
        with pytest.raises(SystemExit):
            main(["generic-check", "--structure", file_struct_line3, "--node", "1"])
        assert len(calls) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestEntryPoint:
    """``python -m ivpaudit.cli`` as a real process."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.run(
            [sys.executable, "-m", "ivpaudit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_valid_audit(self, file_line2_sum):
        proc = self.run("audit", "--system", file_line2_sum, "--node", "1,2")
        assert proc.returncode == 0, proc.stderr
        schema = json.loads((files("ivpaudit") / "schemas" / "audit.json").read_text())
        jsonschema.validate(json.loads(proc.stdout), schema)

    def test_invalid_input_exits_2(self, tmp_path):
        path = write_system_file(tmp_path, "bad.json", {"n": 2, "m": 1, "A": [[1]], "C": [[1]]})
        proc = self.run("audit", "--system", path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ")

    def test_missing_required_flag_exits_2(self):
        proc = self.run("audit")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: ivpaudit audit")
        assert "the following arguments are required: --system" in proc.stderr
