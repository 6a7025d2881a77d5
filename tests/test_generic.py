"""Structure-level (generic) rank estimates, verdicts, and the dichotomy."""

import json
import tracemalloc

import numpy as np
import pytest

from ivpaudit import (
    ConditioningError,
    NetworkStructure,
    ValidationError,
    build_bundle,
    dichotomy_report,
    estimate_generic_rank,
    generic_node_privacy,
    generic_privacy_index,
    instantiate,
    node_private,
    sample_configuration,
)
from ivpaudit import generic
from ivpaudit._util import derive_seed
from ivpaudit.cli import main
from ivpaudit.obsv import hidden_ranks, null_basis
from conftest import TREE4_SPECIAL_THETA, random_structure


def empty_graph_single_sensor(n: int) -> NetworkStructure:
    return NetworkStructure(n=n, m=1, edges=[], sensor_edges=[(0, 0)])


class TestRankEstimate:
    def test_line3_full_generic_rank(self, struct_line3):
        est = estimate_generic_rank(struct_line3, seed=11)
        assert est.n_P_ob == 3
        assert est.agreement == 1.0
        assert est.samples == 8

    def test_tree4_generic_rank_deficient(self, struct_tree4):
        # det(O_ob) vanishes identically on this structure, so the generic
        # rank stays one short of full.
        est = estimate_generic_rank(struct_tree4, seed=11)
        assert est.n_P_ob == 3
        assert est.agreement == 1.0

    def test_tree4_determinant_vanishes_identically(self, struct_tree4):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = rng.uniform(-3.0, 3.0, size=7)
            O = build_bundle(instantiate(struct_tree4, theta)).O_ob
            scale = np.abs(O).max()
            assert abs(np.linalg.det(O)) < 1e-9 * max(scale, 1.0) ** 4

    def test_disclosure_shrinks_hidden_block(self, struct_line3):
        est = estimate_generic_rank(struct_line3, P=(0,), seed=11)
        assert est.n_P_ob == 2

    def test_rank_bounded_by_hidden_count(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            struct = random_structure(rng)
            P = tuple(range(min(1, struct.n - 1)))
            est = estimate_generic_rank(struct, P=P, seed=rng.integers(1 << 30))
            assert 0 <= est.n_P_ob <= struct.n - len(P)

    def test_deterministic_in_seed(self, struct_tree4):
        a = estimate_generic_rank(struct_tree4, seed=5)
        b = estimate_generic_rank(struct_tree4, seed=5)
        assert a.to_dict() == b.to_dict()
        a = generic_node_privacy(struct_tree4, 3, (0,), seed=5)
        b = generic_node_privacy(struct_tree4, 3, (0,), seed=5)
        assert a.to_dict() == b.to_dict()

    def test_signed_sampling_supported(self, struct_line3):
        est = estimate_generic_rank(struct_line3, seed=5, signed=True)
        assert est.n_P_ob == 3

    def test_samples_validated(self, struct_line3):
        with pytest.raises(ValidationError, match="samples"):
            estimate_generic_rank(struct_line3, samples=0)


class TestGenericVerdict:
    def test_line3_node1_generically_lost(self, struct_line3):
        verdict = generic_node_privacy(struct_line3, 0, (), seed=11)
        assert not verdict.generically_private
        assert not verdict.event_E_observed
        assert verdict.condition_hit == ()

    def test_tree4_node4_generically_private(self, struct_tree4):
        verdict = generic_node_privacy(struct_tree4, 3, (), seed=11)
        assert verdict.generically_private
        assert verdict.condition_hit == ("C1", "C2", "C3")
        assert verdict.estimate.n_P_ob == 3

    def test_to_dict_one_based(self, struct_tree4):
        d = generic_node_privacy(struct_tree4, 3, (0,), seed=11).to_dict(one_based=True)
        assert d["node"] == 4
        assert d["P"] == [1]
        assert "estimate" in d

    def test_matches_exact_verdict_at_fresh_configs(self):
        # A generic verdict should agree with the exact test at almost every
        # configuration; fixed seeds keep us off the exceptional surfaces.
        rng = np.random.default_rng(727)
        for samples, draw_P in ((8, False), (8, True), (1, True)):
            agreements = 0
            while agreements < 15:
                struct = random_structure(rng)
                if struct.n < 2:
                    continue
                i = int(rng.integers(struct.n))
                others = [j for j in range(struct.n) if j != i]
                size = int(rng.integers(len(others) + 1)) if draw_P else 0
                P = tuple(sorted(int(p) for p in rng.choice(others, size=size, replace=False)))
                generic = generic_node_privacy(
                    struct, i, P, samples=samples, seed=int(rng.integers(1 << 30))
                )
                theta = sample_configuration(struct, seed=int(rng.integers(1 << 30)))
                exact = node_private(instantiate(struct, theta), i, P)
                assert generic.generically_private == exact.private
                agreements += 1

    def test_node_validation(self, struct_line3):
        with pytest.raises(ValidationError, match="range"):
            generic_node_privacy(struct_line3, 5, ())
        with pytest.raises(ValidationError, match="disclosure"):
            generic_node_privacy(struct_line3, 0, (0,))


class TestGenericIndex:
    def test_line3_index(self, struct_line3):
        report = generic_privacy_index(struct_line3, seed=11)
        assert report.index == -1
        assert report.method == "generic"
        assert report.note == "no level-0 privacy"

    def test_tree4_index(self, struct_tree4):
        report = generic_privacy_index(struct_tree4, seed=11)
        assert report.index == 0
        assert report.rank_Oob == 3

    def test_empty_graph_single_sensor(self):
        report = generic_privacy_index(empty_graph_single_sensor(4), seed=11)
        assert report.rank_Oob == 1
        assert report.index == 2


class TestDichotomy:
    def test_line3_exception_surface(self, struct_line3):
        report = dichotomy_report(struct_line3, 0, (), np.ones(5), seed=11)
        assert not report.generic.generically_private
        assert report.exact.private
        assert not report.agree
        assert report.exception_surface_hit

    def test_tree4_exception_surface(self, struct_tree4):
        report = dichotomy_report(struct_tree4, 3, (), TREE4_SPECIAL_THETA, seed=11)
        assert report.generic.generically_private
        assert not report.exact.private
        assert report.exception_surface_hit

    def test_agreement_off_the_surface(self):
        rng = np.random.default_rng(929)
        for _ in range(20):
            struct = random_structure(rng)
            if struct.n < 2:
                continue
            i = int(rng.integers(struct.n))
            theta = sample_configuration(struct, seed=int(rng.integers(1 << 30)))
            report = dichotomy_report(
                struct, i, (), theta, seed=int(rng.integers(1 << 30))
            )
            assert report.agree
            assert not report.exception_surface_hit

    def test_to_dict_round_trip(self, struct_tree4):
        d = dichotomy_report(struct_tree4, 3, (), TREE4_SPECIAL_THETA, seed=11).to_dict(
            one_based=True
        )
        assert d["node"] == 4
        assert d["agree"] is False
        assert d["exception_surface_hit"] is True
        assert d["generic"]["generically_private"] is True
        assert d["exact"]["private"] is False


def round_weights(structure, seed, step, samples, signed):
    """The first ``samples`` rows of round ``step``'s generator, drawn in one call."""
    rng = np.random.default_rng(derive_seed(seed, step))
    return rng.uniform(-1.0 if signed else 0.0, 1.0, size=(samples, structure.n_weights))


def sample_kernel(structure, seed, step, k, signed):
    """Null basis of one sample's O_ob, built and ranked on its own."""
    theta = round_weights(structure, seed, step, k + 1, signed)[k]
    return null_basis(build_bundle(instantiate(structure, theta)).O_ob)


def reference_estimate(structure, P, samples, seed, signed):
    ranks = [
        hidden_ranks([sample_kernel(structure, seed, 0, k, signed)], P)[0] for k in range(samples)
    ]
    best = max(ranks)
    return {"n_P_ob": best, "samples": samples, "seed": seed,
            "agreement": ranks.count(best) / samples}


def reference_verdict(structure, i, P, samples, seed, signed):
    """The verdict's dict from a per-sample loop over both rounds."""
    estimate = reference_estimate(structure, P, samples, seed, signed)
    observed = False
    for k in range(samples):
        kern = sample_kernel(structure, seed, 1, k, signed)
        hidden = hidden_ranks([kern], P)[0]
        private = hidden_ranks([kern], P + (i,))[0] == hidden
        observed |= hidden + private == estimate["n_P_ob"] + 1
    return {"node": i, "P": list(P), "generically_private": observed,
            "event_E_observed": observed,
            "condition_hit": ["C1", "C2", "C3"] if observed else [], "estimate": estimate}


def stacking_structures():
    rng = np.random.default_rng(1212)
    drawn = [random_structure(rng, n_max=10) for _ in range(8)]
    two_sensors = NetworkStructure(
        n=5, m=2, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], sensor_edges=[(0, 0), (3, 1)]
    )
    return drawn + [empty_graph_single_sensor(4), two_sensors]


class TestStackedRounds:
    """A round's samples are ranked as one stack, with the per-sample results."""

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_stacked_kernels_equal_per_sample_kernels(self, monkeypatch, signed):
        for structure in stacking_structures():
            for block_bytes in (generic.BLOCK_BYTES, 3 * generic._sample_bytes(structure)):
                monkeypatch.setattr(generic, "BLOCK_BYTES", block_bytes)
                got = [
                    (d, kern)
                    for block, kernels in generic._kernel_blocks(structure, 5, signed, (0, 1), 8)
                    for d, kern in zip(block, kernels)
                ]
                assert [d for d, _ in got] == [(step, k) for step in (0, 1) for k in range(8)]
                for (step, k), kern in got:
                    want = sample_kernel(structure, 5, step, k, signed)
                    assert kern.rank == want.rank
                    np.testing.assert_array_equal(kern.N, want.N)
                    assert (kern.tol, kern.row_tol, kern.norm) == (want.tol, want.row_tol, want.norm)

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_estimate_and_verdict_equal_per_sample_loop(self, signed):
        rng = np.random.default_rng(1313)
        for structure in stacking_structures():
            seed = int(rng.integers(1 << 30))
            P = tuple(int(p) for p in rng.choice(structure.n, size=structure.n // 3, replace=False))
            i = next(j for j in range(structure.n) if j not in P)
            est = estimate_generic_rank(structure, P, samples=6, seed=seed, signed=signed)
            assert est.to_dict() == reference_estimate(structure, P, 6, seed, signed)
            verdict = generic_node_privacy(structure, i, P, samples=6, seed=seed, signed=signed)
            assert verdict.to_dict() == reference_verdict(structure, i, P, 6, seed, signed)

    def test_one_draw_per_sample(self, monkeypatch, struct_tree4):
        # Each round reads one generator; with 3 samples per block, the draws
        # follow the blocks and each sample is one row.
        monkeypatch.setattr(generic, "BLOCK_BYTES", 3 * generic._sample_bytes(struct_tree4))
        calls = []
        draw = generic._sampled_system
        monkeypatch.setattr(
            generic, "_sampled_system", lambda *args: calls.append(args[1:3]) or draw(*args)
        )
        generic_node_privacy(struct_tree4, 3, (), samples=5, seed=2)
        rngs = list(dict.fromkeys(rng for rng, _ in calls))
        assert len(rngs) == 2
        assert [rngs.index(rng) for rng, _ in calls] == [0, 0, 1, 1, 1]
        assert [rows for _, rows in calls] == [3, 2, 1, 3, 1]

    @pytest.mark.parametrize("name, special, i, want", [
        ("struct_line3", np.ones(5), 0, False),
        ("struct_tree4", np.array(TREE4_SPECIAL_THETA), 3, True),
    ], ids=["below-max-rank", "at-max-rank"])
    def test_exceptional_sample_does_not_decide(self, monkeypatch, request, name, special, i, want):
        # Row 0 of both rounds sits on the structure's exceptional surface,
        # where the exact test disagrees with the generic verdict.  On line3
        # the surface drops rank(O_ob) below the estimate, so the certifying
        # event cannot hold there; on tree4 the rank stays generic and the
        # node test fails there, but the other samples still certify.
        structure = request.getfixturevalue(name)
        draw = generic._sampled_system
        started = []

        def draw_special(structure, rng, rows, signed):
            theta = draw(structure, rng, rows, signed)
            if not any(rng is seen for seen in started):
                started.append(rng)
                theta[0] = special
            return theta

        monkeypatch.setattr(generic, "_sampled_system", draw_special)
        assert node_private(instantiate(structure, special), i, ()).private != want
        verdict = generic_node_privacy(structure, i, (), samples=4, seed=3)
        assert len(started) == 2
        assert verdict.generically_private == want

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_round_rows_do_not_depend_on_blocks(self, monkeypatch, signed):
        draw = generic._sampled_system
        drawn = []
        monkeypatch.setattr(
            generic, "_sampled_system", lambda *args: drawn.append(draw(*args)) or drawn[-1]
        )

        def rows(structure, rounds, samples):
            drawn.clear()
            for _ in generic._kernel_blocks(structure, 5, signed, rounds, samples):
                pass
            return np.concatenate(drawn)

        for structure in stacking_structures():
            want = [round_weights(structure, 5, step, 8, signed) for step in (0, 1)]
            # Row 0 of a round is the public single draw at the round's seed.
            np.testing.assert_array_equal(
                want[0][0],
                sample_configuration(structure, derive_seed(5, 0), signed=signed).theta,
            )
            for block_bytes in (generic.BLOCK_BYTES, 3 * generic._sample_bytes(structure), 1):
                monkeypatch.setattr(generic, "BLOCK_BYTES", block_bytes)
                np.testing.assert_array_equal(rows(structure, (0, 1), 8), np.concatenate(want))
                np.testing.assert_array_equal(
                    rows(structure, (0, 1), 4), np.concatenate([w[:4] for w in want])
                )

    def test_verdict_round_zero_is_the_estimate(self, monkeypatch):
        draw = generic._sampled_system
        drawn = []
        monkeypatch.setattr(
            generic, "_sampled_system", lambda *args: drawn.append(draw(*args)) or drawn[-1]
        )
        for structure in stacking_structures():
            monkeypatch.setattr(generic, "BLOCK_BYTES", 3 * generic._sample_bytes(structure))
            drawn.clear()
            est = estimate_generic_rank(structure, samples=7, seed=9)
            estimate_rows = np.concatenate(drawn)
            drawn.clear()
            verdict = generic_node_privacy(structure, 0, (), samples=7, seed=9)
            np.testing.assert_array_equal(np.concatenate(drawn)[:7], estimate_rows)
            assert verdict.estimate.to_dict() == est.to_dict()

    def test_peak_memory_is_one_block(self):
        n = 60
        line = [(j, j + 1) for j in range(n - 1)] + [(j + 1, j) for j in range(n - 1)]
        structure = NetworkStructure(n=n, m=1, edges=line, sensor_edges=[(0, 0)])
        estimate_generic_rank(structure, samples=2, seed=1)
        tracemalloc.start()
        try:
            est = estimate_generic_rank(structure, samples=256, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.samples == 256
        assert peak < generic.BLOCK_BYTES + generic._sample_bytes(structure)

    def test_peak_memory_does_not_grow_with_samples(self):
        # A verdict folds each block into its running maximum, agreement count
        # and event flag, so ten times the samples reach the same peak.  A
        # block of this 4-node line holds 364 samples, and each call fills
        # several.  (Traced, 20,000 samples take longer than this test may.)
        structure = NetworkStructure(n=4, m=1, edges=[(0, 1), (1, 2), (2, 3)], sensor_edges=[(0, 0)])
        generic_node_privacy(structure, 3, (), samples=2, seed=1)
        peaks = []
        for samples in (800, 8000):
            tracemalloc.start()
            try:
                verdict = generic_node_privacy(structure, 3, (), samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert verdict.estimate.samples == samples
        assert peaks[1] - peaks[0] < 500_000

    def test_peak_memory_does_not_grow_with_samples_at_one_node(self):
        # At n = 1 a sample's arrays are 80 bytes and the Python objects of its
        # null basis and draw several times that, so a block is sized by those
        # objects too: ten times the samples reach the same traced peak.
        structure = NetworkStructure(n=1, m=1, edges=[(0, 0)], sensor_edges=[(0, 0)])
        generic_node_privacy(structure, 0, (), samples=2, seed=1)
        peaks = []
        for samples in (800, 8000):
            tracemalloc.start()
            try:
                verdict = generic_node_privacy(structure, 0, (), samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert verdict.estimate.samples == samples
        assert peaks[1] - peaks[0] < 500_000


class TestOverflow:
    """C A^k overflows on the complete 120-node digraph with weights in [0, 1]."""

    N = 120

    def complete_digraph(self) -> NetworkStructure:
        edges = [(a, b) for a in range(self.N) for b in range(self.N) if a != b]
        return NetworkStructure(n=self.N, m=1, edges=edges, sensor_edges=[(0, 0)])

    def test_library_raises_conditioning_error(self):
        structure = self.complete_digraph()
        with pytest.raises(ConditioningError, match=r"entries of C A\^\d+ exceed 1e\+150"):
            estimate_generic_rank(structure, seed=1)
        with pytest.raises(ConditioningError, match=r"entries of C A\^\d+ exceed 1e\+150"):
            generic_node_privacy(structure, 3, (), seed=1)

    def test_generic_index_exits_3(self, capsys, tmp_path):
        path = tmp_path / "complete120.json"
        path.write_text(json.dumps(self.complete_digraph().to_dict(one_based=True)))
        code = main(["generic-index", "--structure", str(path), "--seed", "1"])
        assert code == 3
        assert "C A^" in capsys.readouterr().err
