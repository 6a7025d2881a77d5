"""Data model, JSON I/O, structure instantiation, configuration sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpaudit import (
    Configuration,
    DisclosureSet,
    LinearSystem,
    NetworkStructure,
    NoiseModel,
    TimeVaryingSystem,
    ValidationError,
    instantiate,
    load_structure,
    load_system,
    sample_configuration,
    save_system,
    system_to_dict,
)
from ivpaudit import sysmodel
from conftest import random_structure, write_system_file


class TestLoadSystem:
    def test_loads_basic_file(self, file_line2_sum):
        sys_loaded = load_system(file_line2_sum)
        assert isinstance(sys_loaded, LinearSystem)
        assert sys_loaded.n == 2 and sys_loaded.m == 1
        assert sys_loaded.A.tolist() == [[0.0, 1.0], [0.0, -1.0]]
        assert sys_loaded.C.tolist() == [[1.0, 1.0]]
        assert sys_loaded.noise.kind == "iid"
        assert sys_loaded.noise.sigma_nu == 1.0
        assert sys_loaded.noise.sigma_omega == 0.0

    def test_missing_field_reports_path(self, tmp_path):
        path = write_system_file(tmp_path, "bad.json", {"n": 2, "m": 1, "A": [[0, 0], [0, 0]]})
        with pytest.raises(ValidationError, match="C"):
            load_system(path)

    def test_dimension_mismatch(self, tmp_path):
        path = write_system_file(
            tmp_path, "bad.json",
            {"n": 2, "m": 1, "A": [[0, 1]], "C": [[1, 0]]},
        )
        with pytest.raises(ValidationError, match="A"):
            load_system(path)

    def test_zero_output_rejected(self, tmp_path):
        path = write_system_file(
            tmp_path, "bad.json",
            {"n": 2, "m": 1, "A": [[0, 0], [0, 0]], "C": [[0, 0]]},
        )
        with pytest.raises(ValidationError, match="rank"):
            load_system(path)

    def test_non_psd_covariance_rejected(self, tmp_path):
        path = write_system_file(
            tmp_path, "bad.json",
            {
                "n": 1, "m": 1, "A": [[0.5]], "C": [[1.0]],
                "noise": {"kind": "general", "SigmaT": [[1.0, 2.0], [2.0, 1.0]]},
            },
        )
        with pytest.raises(ValidationError, match="semidefinite"):
            load_system(path)

    @pytest.mark.parametrize(
        "payload, load, message",
        [
            ([1, 2], load_system, "{path}: top level must be an object"),
            ({"n": 2, "m": 1, "A": [[0, 0], [0, 0]], "C": [[1, 0]]}, load_structure,
             "structure: missing (expected 'edges'/'sensor_edges')"),
            ({"n": 2, "m": 1, "A_seq": 3, "C_seq": [[[1, 0]]]}, load_system,
             "A_seq: missing or not a list of matrices"),
        ],
        ids=["top-level-array", "no-structure-block", "a-seq-not-a-list"],
    )
    def test_file_shape_rejected(self, tmp_path, payload, load, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as err:
            load(path)
        assert str(err.value) == message.format(path=path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_system(tmp_path / "nope.json")

    def test_negative_sigma_rejected(self, tmp_path):
        path = write_system_file(
            tmp_path, "bad.json",
            {"n": 1, "m": 1, "A": [[0.0]], "C": [[1.0]],
             "noise": {"kind": "iid", "sigma_nu": -1.0, "sigma_omega": 0.0}},
        )
        with pytest.raises(ValidationError, match="sigma_nu"):
            load_system(path)

    def test_round_trip_is_bit_exact(self, tmp_path, file_line2_first):
        first = load_system(file_line2_first)
        out = tmp_path / "roundtrip.json"
        save_system(first, out)
        second = load_system(out)
        assert np.array_equal(first.A, second.A)
        assert np.array_equal(first.C, second.C)
        assert system_to_dict(first) == system_to_dict(second)

    def test_round_trip_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(11)
        dbl_max = np.finfo(float).max
        cases = [
            (rng.standard_normal((3, 3)) * 1e-7, rng.standard_normal((2, 3)) * 1e9,
             0.1234567890123456789, 3.3e-17),
            # subnormals, signed zeros and the largest finite doubles
            ([[5e-324, -0.0, 2.2250738585072009e-308], [-4.9e-322, 0.0, 1e-310],
              [2.2250738585072014e-308, -1.5e-323, -0.0]],
             [[dbl_max, -dbl_max, -0.0], [0.30000000000000004, 0.1, 1.0000000000000002]],
             5e-324, dbl_max),
            # values that need all 17 significant digits
            ([[0.12345678901234568, 9.8765432109876543e-5, -3.1415926535897931],
              [2.7182818284590451e100, -1.4142135623730951e-100, 6.0221407599999999e23],
              [1.0000000000000002, 0.99999999999999989, -123456789.01234567]],
             [[4.4408920985006262e-16, -1.2345678901234567e-300, 8.9884656743115795e307],
              [2.2204460492503131e-16, -9.9999999999999995e-8, 1.7976931348623155e308]],
             0.30000000000000004, 2.2250738585072014e-308),
        ]
        out = tmp_path / "awkward.json"
        for A, C, sigma_nu, sigma_omega in cases:
            sys_rand = LinearSystem(
                n=3, m=2, A=A, C=C, noise=NoiseModel.iid(sigma_nu, sigma_omega)
            )
            save_system(sys_rand, out)
            back = load_system(out)
            # compared as bit patterns, so -0.0 must come back as -0.0
            assert np.array_equal(sys_rand.A.view(np.uint64), back.A.view(np.uint64))
            assert np.array_equal(sys_rand.C.view(np.uint64), back.C.view(np.uint64))
            assert back.noise.sigma_nu == sys_rand.noise.sigma_nu
            assert back.noise.sigma_omega == sys_rand.noise.sigma_omega


class TestNoiseModel:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: NoiseModel(kind="gaussian"),
             "noise.kind: expected 'iid' or 'general', got 'gaussian'"),
            (lambda: NoiseModel(kind="iid", Sigma_T=[[1.0]]),
             "noise.SigmaT: only allowed when kind == 'general'"),
            (lambda: NoiseModel(kind="general"),
             "noise.SigmaT: required when kind == 'general'"),
            (lambda: NoiseModel.general([[1.0, 0.0]]),
             "noise.SigmaT: covariance must be square, got shape (1, 2)"),
        ],
        ids=["unknown-kind", "sigma-t-with-iid", "general-without-sigma-t", "not-square"],
    )
    def test_rejections(self, make, message):
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("lam, accepted", [(-1e-12, True), (-1e-6, False)])
    def test_psd_tolerance_from_both_sides(self, lam, accepted):
        # PSD_TOLERANCE = 1e-10, relative to lambda_max = 1: 1e-12 of rounding
        # is accepted, a 1e-6 negative eigenvalue is not.
        sigma = np.diag([1.0, lam])
        if accepted:
            assert NoiseModel.general(sigma).Sigma_T_lambda_min == lam
        else:
            with pytest.raises(ValidationError, match="not positive semidefinite"):
                NoiseModel.general(sigma)

    @pytest.mark.parametrize("skew, accepted", [(1e-10, True), (1e-6, False)])
    def test_symmetry_tolerance_from_both_sides(self, skew, accepted):
        # The symmetry check allows 1e-8 of max(|Sigma_T|, 1); the symmetric part is kept.
        sigma = [[1.0, skew], [0.0, 1.0]]
        if accepted:
            assert NoiseModel.general(sigma).Sigma_T.tolist() == [[1.0, skew / 2], [skew / 2, 1.0]]
        else:
            with pytest.raises(ValidationError, match="^noise.SigmaT: covariance must be symm"):
                NoiseModel.general(sigma)


class TestTimeVarying:
    def test_loads_sequences(self, tmp_path):
        path = write_system_file(
            tmp_path, "tv.json",
            {
                "n": 2, "m": 1,
                "A_seq": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]],
                "C_seq": [[[1, 0]], [[0, 1]], [[1, 1]]],
            },
        )
        tv = load_system(path)
        assert isinstance(tv, TimeVaryingSystem)
        assert tv.T == 2
        assert tv.C_seq[2].tolist() == [[1.0, 1.0]]

    def test_all_zero_outputs_rejected(self):
        with pytest.raises(ValidationError, match=r"^C_seq: all output maps are zero$"):
            TimeVaryingSystem(n=2, m=1, A_seq=([[0, 1], [1, 0]],), C_seq=([[0, 0]], [[0, 0]]))

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        first = TimeVaryingSystem(
            n=3, m=2,
            A_seq=tuple(rng.standard_normal((2, 3, 3))),
            C_seq=tuple(rng.standard_normal((3, 2, 3))),
            noise=NoiseModel.iid(0.5, 0.25),
        )
        out = tmp_path / "tv.json"
        save_system(first, out)
        second = load_system(out)
        assert isinstance(second, TimeVaryingSystem) and second.T == 2
        for a, b in zip(first.A_seq + first.C_seq, second.A_seq + second.C_seq):
            assert np.array_equal(a, b)
        assert system_to_dict(first) == system_to_dict(second)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="C_seq"):
            TimeVaryingSystem(
                n=2, m=1,
                A_seq=([[0, 1], [1, 0]],),
                C_seq=([[1, 0]],),
            )


class TestStructure:
    def test_canonical_ordering(self):
        structure = NetworkStructure(
            n=3, m=1, edges=((2, 1), (1, 0), (0, 1)), sensor_edges=((2, 0), (0, 0))
        )
        assert structure.edges == ((1, 0), (0, 1), (2, 1))
        assert structure.sensor_edges == ((0, 0), (2, 0))

    def test_sensor_without_edge_rejected(self):
        with pytest.raises(ValidationError, match="sensor 1"):
            NetworkStructure(n=2, m=2, edges=(), sensor_edges=((0, 0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            NetworkStructure(n=2, m=1, edges=((0, 1), (0, 1)), sensor_edges=((0, 0),))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            NetworkStructure(n=2, m=1, edges=((0, 5),), sensor_edges=((0, 0),))

    @pytest.mark.parametrize(
        "m, edges, sensor_edges, message",
        [
            (1, ((0, 8),), ((0, 0),), "edges[0]: target node index 8 out of range [0, 1]"),
            (1, ((0, 0), (0, 0)), ((0, 0),), "edges[1]: duplicate entry (0, 0)"),
            (1, (), ((0, 2),), "sensor_edges[0]: sensor index 2 out of range [0, 0]"),
            (2, (), ((0, 0),), "sensor_edges: sensor 1 has no incident edge"),
        ],
        ids=["node-range", "duplicate", "sensor-range", "uncovered-sensor"],
    )
    def test_library_errors_stay_zero_based(self, m, edges, sensor_edges, message):
        with pytest.raises(ValidationError) as exc:
            NetworkStructure(n=2, m=m, edges=edges, sensor_edges=sensor_edges)
        assert str(exc.value) == message

    def test_structure_checked_once(self, monkeypatch, file_struct_line3):
        # One pass over each edge list, whether the structure comes from a
        # file (in file terms) or from the library (in 0-based terms).
        calls = []
        check = sysmodel._check_edges
        monkeypatch.setattr(
            sysmodel, "_check_edges", lambda *args: calls.append(args[3]) or check(*args)
        )
        loaded = load_structure(file_struct_line3)
        assert calls == ["structure.edges", "structure.sensor_edges"]
        calls.clear()
        built = NetworkStructure(n=3, m=1, edges=loaded.edges, sensor_edges=loaded.sensor_edges)
        assert calls == ["edges", "sensor_edges"]
        assert (built.edges, built.sensor_edges) == (loaded.edges, loaded.sensor_edges)
        assert (type(loaded), type(loaded.n), type(loaded.edges)) == (NetworkStructure, int, tuple)

    @pytest.mark.parametrize(
        "edges, sensor_edges, message",
        [
            ([1, 2], [(0, 0)], "edges[0]: expected a (source, target) pair, got 1"),
            ([(0, 1)], None, "sensor_edges: expected a list of pairs"),
            (5, [(0, 0)], "edges: expected a list of pairs"),
            ([(0, 1, 1)], [(0, 0)], "edges[0]: expected a (source, target) pair, got (0, 1, 1)"),
            ([[0, 1, 1]], [(0, 0)], "edges[0]: expected a (source, target) pair, got (0, 1, 1)"),
        ],
        ids=["int-pairs", "none-list", "int-list", "triple-tuple", "triple-list"],
    )
    def test_library_non_pairs_name_the_field(self, edges, sensor_edges, message):
        with pytest.raises(ValidationError) as exc:
            NetworkStructure(n=2, m=1, edges=edges, sensor_edges=sensor_edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "edges",
        [((1, 0), (0, 1)), [[1, 0], [0, 1]], np.array([[1, 0], [0, 1]]), iter([(1, 0), (0, 1)])],
        ids=["tuples", "lists", "numpy-rows", "iterator"],
    )
    def test_library_pair_forms_accepted(self, edges):
        structure = NetworkStructure(n=2, m=1, edges=edges, sensor_edges=np.array([[1, 0]]))
        assert structure.edges == ((1, 0), (0, 1))  # by (target, source)
        assert structure.sensor_edges == ((1, 0),)
        assert all(type(v) is int for pair in structure.edges for v in pair)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": "x", "m": 1, "structure": {"edges": [[1]], "sensor_edges": 3}},
             "n: expected an integer, got 'x'"),
            ({"n": 0, "m": 1, "structure": {"sensor_edges": [[1, 1]]}}, "n: must be >= 1, got 0"),
            ({"n": "x", "m": 1, "structure": [1]}, "structure: expected an object"),
            ({"n": 2, "m": 1, "edges": [[1, 9]], "sensor_edges": [[0, 1]]},
             "structure.sensor_edges[0]: file indices are 1-based, got [0, 1]"),
            ({"n": 2, "m": 1, "edges": [[1, 9]]}, "structure.sensor_edges: missing"),
            ({"n": 2, "m": 1, "edges": [[1, 9], [1]], "sensor_edges": []},
             "structure.edges[1]: expected a pair, got [1]"),
            ({"n": 2, "m": 1, "edges": "ab", "sensor_edges": []},
             "structure.edges: expected a list of pairs"),
            ({"n": 2, "m": 1, "edges": [[1, 2]], "sensor_edges": [["a", "b"]]},
             "structure.sensor_edges[0]: expected an integer, got 'a'"),
        ],
        ids=["n-before-pairs", "n-before-missing", "block-first", "shapes-before-indices",
             "missing-before-indices", "pair-before-indices", "string-list", "string-index"],
    )
    def test_file_check_order(self, tmp_path, payload, message):
        # Block type, then n and m, then the JSON shape of both edge lists,
        # then their indices and the sensors' coverage.
        with pytest.raises(ValidationError) as exc:
            load_structure(write_system_file(tmp_path, "bad.json", payload))
        assert str(exc.value) == message

    def test_load_from_file_is_one_based(self, file_struct_line3, struct_line3):
        loaded = load_structure(file_struct_line3)
        assert loaded.edges == struct_line3.edges
        assert loaded.sensor_edges == struct_line3.sensor_edges

    def test_load_from_system_file_block(self, tmp_path):
        path = write_system_file(
            tmp_path, "with_structure.json",
            {
                "n": 2, "m": 1, "A": [[0, 1], [0, 0]], "C": [[1, 0]],
                "structure": {"edges": [[2, 1]], "sensor_edges": [[1, 1]]},
            },
        )
        loaded = load_structure(path)
        assert loaded.edges == ((1, 0),)
        assert loaded.sensor_edges == ((0, 0),)

    def test_zero_based_file_index_rejected(self, tmp_path):
        path = write_system_file(
            tmp_path, "zero.json",
            {"n": 2, "m": 1, "edges": [[0, 1]], "sensor_edges": [[1, 1]]},
        )
        with pytest.raises(ValidationError, match="1-based"):
            load_structure(path)


class TestInstantiate:
    def test_line3_all_ones(self, struct_line3):
        system = instantiate(struct_line3, [1.0] * 5)
        assert system.A.tolist() == [[0, 1, 0], [1, 0, 1], [0, 0, 0]]
        assert system.C.tolist() == [[1, 0, 1]]

    def test_weights_follow_canonical_order(self, struct_line3):
        # canonical layout: a12, a21, a23 then c11, c13
        system = instantiate(struct_line3, [2.0, 3.0, 5.0, 7.0, 11.0])
        assert system.A[0, 1] == 2.0
        assert system.A[1, 0] == 3.0
        assert system.A[1, 2] == 5.0
        assert system.C[0, 0] == 7.0
        assert system.C[0, 2] == 11.0

    def test_zero_weights_allowed(self, struct_line3):
        system = instantiate(struct_line3, np.zeros(5))
        assert not system.A.any() and not system.C.any()

    def test_wrong_weight_count(self, struct_line3):
        with pytest.raises(ValidationError, match="5 weights"):
            instantiate(struct_line3, [1.0, 2.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_recovers_weights(self, seed):
        rng = np.random.default_rng(seed)
        structure = random_structure(rng)
        config = sample_configuration(structure, seed=seed)
        system = instantiate(structure, config)
        k = 0
        mask_A = np.zeros((structure.n, structure.n), dtype=bool)
        for src, dst in structure.edges:
            assert system.A[dst, src] == config.theta[k]
            mask_A[dst, src] = True
            k += 1
        mask_C = np.zeros((structure.m, structure.n), dtype=bool)
        for src, sensor in structure.sensor_edges:
            assert system.C[sensor, src] == config.theta[k]
            mask_C[sensor, src] = True
            k += 1
        assert not system.A[~mask_A].any()
        assert not system.C[~mask_C].any()


class TestSampling:
    def test_deterministic(self, struct_line3):
        a = sample_configuration(struct_line3, seed=9)
        b = sample_configuration(struct_line3, seed=9)
        c = sample_configuration(struct_line3, seed=10)
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_range_default_and_signed(self, struct_tree4):
        plain = sample_configuration(struct_tree4, seed=0)
        assert np.all(plain.theta >= 0.0) and np.all(plain.theta <= 1.0)
        hits_negative = False
        for seed in range(20):
            signed = sample_configuration(struct_tree4, seed=seed, signed=True)
            assert np.all(signed.theta >= -1.0) and np.all(signed.theta <= 1.0)
            hits_negative = hits_negative or np.any(signed.theta < 0)
        assert hits_negative


class TestDisclosureSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DisclosureSet((1, 1))

    def test_complement_sorted(self):
        P = DisclosureSet((3, 0))
        assert P.complement(5) == (1, 2, 4)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            DisclosureSet((7,)).validate_range(3)


class TestImmutability:
    def test_arrays_frozen(self, sys_line2_sum, struct_line3):
        with pytest.raises(ValueError):
            sys_line2_sum.A[0, 0] = 5.0
        config = sample_configuration(struct_line3, seed=1)
        with pytest.raises(ValueError):
            config.theta[0] = 2.0

    def test_frozen_arrays_are_private_copies(self):
        # Arrays are frozen in place, so each must be the model's own copy:
        # writing to the caller's float arrays afterwards changes nothing.
        A, C, sigma, theta = np.eye(2), np.ones((1, 2)), np.eye(4), np.ones(3)
        system = LinearSystem(n=2, m=1, A=A, C=C, noise=NoiseModel.general(sigma))
        tv = TimeVaryingSystem(n=2, m=1, A_seq=(A,), C_seq=(C, C))
        config = Configuration(theta)
        stored = [system.A, system.C, system.noise.Sigma_T, *tv.A_seq, *tv.C_seq, config.theta]
        wants = [arr.copy() for arr in stored]
        for given in (A, C, sigma, theta):
            assert given.flags.writeable
            given[...] = 7.0
        for arr, want in zip(stored, wants):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, want)

    def test_configuration_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="finite"):
            Configuration(np.array([1.0, np.nan]))
