import numpy as np
import pytest
import scipy.linalg

from chiraledge import verify
from chiraledge.errors import ExhaustedRedraws, GapNotCertified
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, ssh
from chiraledge.models import build_model, chiral_split
from chiraledge.spectrum import chiral_gap_margin
from chiraledge.verify import (
    EnsembleSpec,
    case_to_dict,
    has_singular_leading_hop,
    random_chiral_ensemble,
    two_band_case,
    verify_bec,
    verify_gap_exclusion,
)


class TestEnsemble:
    def test_determinism(self):
        spec = EnsembleSpec(seed=1, count=3, dim_v=2, hop_range=2)
        a = random_chiral_ensemble(spec)
        b = random_chiral_ensemble(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.base.on_site, y.base.on_site)
            assert np.array_equal(x.base.right_hops, y.base.right_hops)

    def test_gap_floor_respected(self):
        spec = EnsembleSpec(seed=2, count=10, dim_v=2, hop_range=1, gap_floor=0.1)
        for cm in random_chiral_ensemble(spec):
            assert chiral_gap_margin(cm) >= 0.1

    def test_singular_fraction(self):
        spec = EnsembleSpec(seed=3, count=1000, dim_v=2, hop_range=1, gap_floor=0.01)
        models = random_chiral_ensemble(spec)
        frac = sum(has_singular_leading_hop(cm) for cm in models) / len(models)
        assert 0.15 <= frac <= 0.25

    def test_exhausted_redraws(self):
        spec = EnsembleSpec(seed=4, count=1, dim_v=2, hop_range=1, coefficient_scale=1e-3, gap_floor=5.0)
        with pytest.raises(ExhaustedRedraws):
            random_chiral_ensemble(spec)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            random_chiral_ensemble(EnsembleSpec(seed=0, count=1, dim_v=3, hop_range=1))

    @pytest.mark.parametrize(
        "scale,gap_floor",
        [(float("nan"), 0.05), (0.0, 0.05), (-1.0, 0.05), (1e300, 0.05), (1e-200, 0.05), (1.0, -1.0),
         (1.0, float("nan"))],
        ids=["scale-nan", "scale-0", "scale-negative", "square-overflows", "square-underflows", "gap_floor-negative",
             "gap_floor-nan"],
    )
    def test_rejects_a_bad_scale_or_gap_floor(self, scale, gap_floor):
        # Before these checks NaN failed in an SVD, 0 spent 1000 redraws and a
        # negative gap floor ran.
        with pytest.raises(ValueError, match="coefficient_scale"):
            random_chiral_ensemble(
                EnsembleSpec(seed=0, count=1, dim_v=2, hop_range=1, coefficient_scale=scale, gap_floor=gap_floor)
            )


class TestVerifyBec:
    def test_dimerized_fixtures(self):
        expected = {"plus": 1, "minus": -1, "trivial": 0}
        cases = {
            "plus": verify_bec(dimerized_plus()),
            "minus": verify_bec(dimerized_minus()),
            "trivial": verify_bec(dimerized_trivial()),
        }
        for name, case in cases.items():
            assert case.passed, case.verdicts
            assert case.winding.winding == expected[name]
            assert case.edge.edge_index == expected[name]

    def test_defective_theta_grid(self):
        for theta in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            case = verify_bec(defective(float(theta)))
            assert case.passed
            assert case.winding.winding == 1
            assert case.edge.edge_index == 1
            assert case.verdicts["route_agreement"].status == "pass"

    def test_case_dict_serializes(self):
        doc = case_to_dict(verify_bec(dimerized_plus()))
        assert doc["passed"] is True
        assert doc["verdicts"]["bec_equality"]["status"] == "pass"

    def test_small_mixed_ensemble(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=71, count=15, dim_v=4, hop_range=2, gap_floor=0.05))
        for cm in models:
            case = verify_bec(cm)
            assert case.passed, case_to_dict(case)
            assert case.verdicts["route_agreement"].status == "pass"
            assert case.verdicts["sandwich"].status == "pass"


def strong_form(cm):
    """two_band_case on verify_bec's gap, winding and edge count, as cli verify runs it."""
    bec = verify_bec(cm)
    return two_band_case(cm, bec.gap, bec.winding, bec.edge)


class TestUncertifiedGap:
    # sigma_min = 2e-6 is sampled, but no grid up to NUM_K_CAP certifies it.
    def test_verify_bec_refuses_before_winding(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("wound a model whose gap is not certified")

        monkeypatch.setattr(verify, "winding_phase", never)
        with pytest.raises(GapNotCertified):
            verify_bec(ssh(1.0, 1.000002))

    def test_gap_exclusion_refuses(self):
        with pytest.raises(GapNotCertified):
            verify_gap_exclusion(ssh(1.0, 1.000002))


class TestPencilFactorizations:
    # One QZ each of h_pm's and h_mp's recurrence pencils in the companion
    # route, whose h_pm count is also the winding's root count, and one of
    # h_pm's for the truncation size; no eig of a pencil beside them.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ssh(1, 2),
            lambda: next(
                cm
                for cm in random_chiral_ensemble(EnsembleSpec(seed=7, count=3, dim_v=4, hop_range=2))
                if has_singular_leading_hop(cm)
            ),
        ],
        ids=["ssh", "singular-4-2"],
    )
    def test_three_per_verify_bec(self, make, monkeypatch):
        cm = make()
        calls = []
        for name in ("ordqz", "eigvals"):

            def counting(*args, name=name, fn=getattr(scipy.linalg, name), **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        case = verify_bec(cm)
        assert case.passed
        assert calls == ["ordqz"] * 3


class TestTwoBandStrong:
    def test_hop_chain_cases(self):
        case = strong_form(ssh(1, 2))
        assert case.passed
        assert (case.edge.dim_ker_pm, case.edge.dim_ker_mp) == (1, 0)
        case = strong_form(ssh(2, 1))
        assert case.passed
        assert (case.edge.dim_ker_pm, case.edge.dim_ker_mp) == (0, 0)

    def test_longer_range_ensemble(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=73, count=10, dim_v=2, hop_range=3, gap_floor=0.08))
        for cm in models:
            case = strong_form(cm)
            assert case.passed, case_to_dict(case)


class TestGapExclusion:
    def test_defective_family(self):
        case = verify_gap_exclusion(defective(0.9))
        assert case.passed
        details = case.verdicts["zero_confinement"].details
        assert details["cells"] == 100
        assert all(abs(e) < 1e-8 for e in details["checked_energies"])

    def test_hypothesis_gating(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=74, count=1, dim_v=2, hop_range=2, gap_floor=0.1))
        case = verify_gap_exclusion(models[0])
        assert case.verdicts["zero_confinement"].status == "skip"

    def test_nearest_neighbour_ensemble(self):
        models = random_chiral_ensemble(EnsembleSpec(seed=76, count=20, dim_v=2, hop_range=1, gap_floor=0.2))
        for cm in models:
            case = verify_gap_exclusion(cm)
            assert case.passed, case_to_dict(case)

    def test_hybridized_pair_is_checked(self):
        # ssh(0.9, 1) decays slowly: on its 161 cells the two edge modes
        # hybridize into a +-8e-9 pair spread over both edges, so no hit is "left".
        verdict = verify_gap_exclusion(ssh(0.9, 1)).verdicts["zero_confinement"]
        assert verdict.status == "pass"
        assert verdict.details["cells"] == 161
        energies = verdict.details["checked_energies"]
        assert len(energies) == 2 and all(1e-9 < abs(e) < 1e-8 for e in energies)
        assert verdict.details["eps_n"] > max(abs(e) for e in energies)

    def test_truncation_sized_from_the_decay(self):
        # ssh(0.97, 1): at 100 cells eps_n = 10 q^100 ~ 0.48 exceeded the whole
        # gap (-0.03, 0.03); the decay minimum, 538 cells, brings it to 7.6e-7.
        verdict = verify_gap_exclusion(ssh(0.97, 1)).verdicts["zero_confinement"]
        assert verdict.status == "pass"
        assert verdict.details["cells"] == 538
        assert verdict.details["eps_n"] == pytest.approx(7.6e-7, rel=1e-2)
        assert len(verdict.details["checked_energies"]) == 2

    def test_splitting_scales_with_the_hoppings(self):
        # ssh(970, 1000) is ssh(0.97, 1) times 1000: the same decay and 538
        # cells, and an edge pair split 1000 times wider (+-4.5e-6), which an
        # eps_n of 10 q^N = 7.6e-7 alone would reject.
        small = verify_gap_exclusion(ssh(0.97, 1)).verdicts["zero_confinement"]
        large = verify_gap_exclusion(ssh(970, 1000)).verdicts["zero_confinement"]
        assert large.status == "pass"
        assert large.details["cells"] == small.details["cells"] == 538
        assert large.details["eps_n"] == pytest.approx(1000 * small.details["eps_n"], rel=1e-12)
        assert max(abs(e) for e in large.details["checked_energies"]) > 1e-6

    def test_splitting_wider_than_the_window_skips(self):
        # ssh(0.99, 1) needs 1612 cells, above GAP_EXCLUSION_CELLS_MAX, so it
        # stays at 100, where eps_n = 10 q^100 ~ 3.7 exceeds the whole gap (-0.01, 0.01).
        verdict = verify_gap_exclusion(ssh(0.99, 1)).verdicts["zero_confinement"]
        assert verdict.status == "skip"
        assert verdict.details["cells"] == 100
        assert verdict.details["eps_n"] > 3
        assert "checked_energies" not in verdict.details


class TestPerturbationRobustness:
    def test_invariants_stable_under_small_perturbation(self):
        rng = np.random.default_rng(99)
        base_models = random_chiral_ensemble(EnsembleSpec(seed=75, count=5, dim_v=2, hop_range=1, gap_floor=0.2))
        for cm in base_models:
            ref = verify_bec(cm)
            floor = 0.1  # half the generation floor
            eta = 0.02
            d, q = cm.dim_v, cm.dim_plus
            v = cm.v_block + eta * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
            on_site = np.zeros((d, d), dtype=complex)
            on_site[q:, :q] = v
            on_site[:q, q:] = v.conj().T
            hops = cm.base.right_hops + 0.0
            perturbed = chiral_split(
                build_model(d, cm.hop_range, on_site, hops), cm.grading
            )
            if chiral_gap_margin(perturbed) < floor:
                continue
            case = verify_bec(perturbed)
            assert case.winding.winding == ref.winding.winding
            assert case.edge.edge_index == ref.edge.edge_index
