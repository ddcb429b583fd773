"""Acceptance suite: every gate criterion at its stated tolerance, one per test.

Each test prints a single PASS/FAIL line so the suite doubles as a report:
run with `pytest tests/test_acceptance.py -s`.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from chiraledge.cli import main as cli_main
from chiraledge.companion import (
    build_companion,
    char_poly_residual,
    duality_check,
    propagate,
    spectral_split,
)
from chiraledge.errors import SingularLeadingHop
from chiraledge.fixtures import defective, dimerized_minus, dimerized_plus, dimerized_trivial, ssh
from chiraledge.halfspace import (
    edge_modes_companion,
    edge_modes_truncated,
    in_gap_scan,
    truncate_halfspace,
)
from chiraledge.loops import full_deformation
from chiraledge.models import build_model, save_model
from chiraledge.spectrum import certified_gap
from chiraledge.verify import (
    EnsembleSpec,
    case_to_dict,
    has_singular_leading_hop,
    random_chiral_ensemble,
    verify_bec,
)
from chiraledge.winding import full_winding


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num}: PASS - {description} ({elapsed:.1f}s)")


def left_localized_zero_modes(matrix: np.ndarray, cells: int, dim: int):
    evals, evecs = np.linalg.eigh(matrix)
    zero_idx = np.flatnonzero(np.abs(evals) < 1e-10)
    if len(zero_idx) == 0:
        return np.zeros((matrix.shape[0], 0))
    subspace = evecs[:, zero_idx]
    half_rows = subspace.reshape(cells, dim, -1)[: cells // 2].reshape(-1, len(zero_idx))
    w, basis = np.linalg.eigh(half_rows.conj().T @ half_rows)
    return subspace @ basis[:, w > 0.5]


def test_criterion_1_dimerized_fixtures():
    with criterion(1, "dimerized fixtures: indices, truncated spectrum, compact zero mode"):
        start = time.perf_counter()
        fixtures = [(dimerized_plus(), 1), (dimerized_minus(), -1), (dimerized_trivial(), 0)]
        for cm, expected in fixtures:
            assert full_winding(cm).winding == expected
            assert edge_modes_truncated(cm).edge_index == expected

        cm = dimerized_plus()
        trunc = truncate_halfspace(cm.base, 16)
        evals = np.linalg.eigvalsh(trunc)
        distance = np.minimum(np.abs(evals), np.abs(np.abs(evals) - 1.0))
        assert np.all(distance <= 1e-10)

        modes = left_localized_zero_modes(trunc, 16, 2)
        assert modes.shape[1] == 1
        reference = np.zeros(32, dtype=complex)
        reference[0] = 1.0
        vec = modes[:, 0]
        vec = vec * np.vdot(vec, reference) / abs(np.vdot(vec, reference))
        assert np.allclose(vec, reference, atol=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_ssh_family():
    with criterion(2, "alternating-bond family: index rule and edge-state profile"):
        start = time.perf_counter()
        for t1, t2 in ((1.0, 2.0), (2.0, 1.0), (1.0, -2.0)):
            cm = ssh(t1, t2)
            expected = 1 if abs(t2) > abs(t1) else 0
            assert full_winding(cm).winding == expected
            assert edge_modes_truncated(cm).edge_index == expected

        cells = 60
        report = edge_modes_truncated(ssh(1.0, 2.0), cells=cells)
        assert report.dim_ker_pm == 1
        vec = report.kernel_vectors_pm[:, 0]
        reference = np.array([(-0.5) ** n for n in range(1, cells + 1)], dtype=complex)
        reference /= np.linalg.norm(reference)
        phase = np.vdot(vec, reference)
        vec = vec * phase / abs(phase)
        assert np.max(np.abs(vec - reference)) < 1e-8
        assert time.perf_counter() - start < 5.0


def test_criterion_3_defective_family():
    with criterion(3, "defective family: clusters, window values, index by both routes"):
        start = time.perf_counter()
        for theta in (0.0, np.pi / 3, -2.5):
            cm = defective(theta)
            comp = build_companion(cm.base, 0.0)
            split = spectral_split(comp)  # cluster tolerance 1e-7
            clusters = sorted(split.eigenvalues, key=lambda c: abs(c[0]))
            assert [m for _, m in clusters] == [2, 2]
            assert abs(clusters[0][0] - (-0.5 * np.exp(-1j * theta))) < 1e-7
            assert abs(clusters[1][0] - (-2.0 * np.exp(-1j * theta))) < 1e-7

            mode = propagate(comp, [0, 0, 1, 0], steps=6, first_cell=0)
            p = np.exp(-1j * theta)
            expected = [
                np.array([1, 0]),
                np.array([-p, 0]),
                np.array([0.75 * p**2, 0]),
                np.array([-0.5 * p**3, 0]),
            ]
            for n, cell in enumerate(expected, start=1):
                assert np.max(np.abs(mode.window[n] - cell)) < 1e-10

            assert full_winding(cm).winding == 1
            assert edge_modes_truncated(cm).edge_index == 1
            assert edge_modes_companion(cm).edge_index == 1
        assert time.perf_counter() - start < 5.0


ENSEMBLES = [
    EnsembleSpec(seed=1001, count=200, dim_v=2, hop_range=1, gap_floor=0.05),
    EnsembleSpec(seed=1002, count=200, dim_v=2, hop_range=2, gap_floor=0.05),
    EnsembleSpec(seed=1003, count=200, dim_v=2, hop_range=3, gap_floor=0.05),
    EnsembleSpec(seed=1004, count=200, dim_v=4, hop_range=1, gap_floor=0.05),
    EnsembleSpec(seed=1005, count=200, dim_v=4, hop_range=2, gap_floor=0.05),
]


@pytest.fixture(scope="module")
def bec_ensemble_cases():
    started = time.perf_counter()
    cases = []
    for spec in ENSEMBLES:
        for cm in random_chiral_ensemble(spec):
            cases.append((spec, cm, verify_bec(cm)))
    return cases, time.perf_counter() - started


def test_criterion_4_bec_at_scale(bec_ensemble_cases):
    with criterion(4, "index equality over 5 seeded ensembles of 200 models"):
        cases, elapsed = bec_ensemble_cases
        assert len(cases) == 1000
        for spec, cm, case in cases:
            assert case.verdicts["bec_equality"].status == "pass", case_to_dict(case)
            if not has_singular_leading_hop(cm):
                assert case.verdicts["route_agreement"].status == "pass", case_to_dict(case)
        assert elapsed < 600.0, f"ensemble verification took {elapsed:.0f}s"


def test_criterion_5_two_band_strong_form(bec_ensemble_cases):
    with criterion(5, "two-band strong form: kernel dims (max(0,W), max(0,-W)), |W| <= R"):
        cases, _ = bec_ensemble_cases
        checked = 0
        for spec, cm, case in cases:
            if spec.dim_v != 2:
                continue
            w = case.winding.winding
            assert abs(w) <= spec.hop_range
            assert (case.edge.dim_ker_pm, case.edge.dim_ker_mp) == (max(0, w), max(0, -w))
            checked += 1
        assert checked == 600


def test_criterion_6_in_gap_exclusion():
    with criterion(6, "nearest-neighbour two-band models: in-gap spectrum confined to zero"):
        models = random_chiral_ensemble(
            EnsembleSpec(seed=2024, count=100, dim_v=2, hop_range=1, gap_floor=0.3)
        )
        cells = 100
        left_hits = 0
        for cm in models:
            gap = certified_gap(cm.base, around_energy=0.0)
            delta = 0.05 * (gap.e_plus - gap.e_minus)
            hits = in_gap_scan(cm.base, cells, (gap.e_minus + delta, gap.e_plus - delta), gap=gap)
            for hit in hits:
                if hit.side == "left":
                    left_hits += 1
                    assert abs(hit.energy) < 1e-7, (hit, gap)
        assert left_hits > 0  # the assertion must not be vacuous


def test_criterion_7_structural_identities():
    with criterion(7, "characteristic-polynomial residual and eigenvalue duality, 500 models"):
        rng = np.random.default_rng(31415)
        checked = 0
        while checked < 500:
            d = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            hops = rng.standard_normal((r, d, d)) + 1j * rng.standard_normal((r, d, d))
            model = build_model(d, r, v + v.conj().T, hops)
            energy = float(rng.uniform(-2.0, 2.0))
            radii = 0.5 + 1.5 * rng.random(16)
            probes = radii * np.exp(2j * np.pi * rng.random(16))
            try:
                residual = char_poly_residual(model, energy, probes)
            except SingularLeadingHop:
                continue
            assert residual < 1e-8, residual
            assert duality_check(spectral_split(build_companion(model, energy)))
            checked += 1


def test_criterion_8_deformation_pipeline():
    with criterion(8, "deformation pipeline: certificates, constant winding, endpoint counts"):
        start = time.perf_counter()
        for cm in (dimerized_plus(), defective(0.0)):
            path = full_deformation(cm)
            w = full_winding(cm).winding
            assert set(path.winding_per_stage) == {w}
            assert min(path.certificates) > 0
            r_q = path.notes["hop_range"] * cm.dim_plus
            n_lam, n_inv, _ = path.notes["counts"]
            assert (n_lam, n_inv) == (w + r_q, r_q)
            assert path.notes["endpoint_edge_index"] == w
        assert time.perf_counter() - start < 30.0


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reruns with the same seed are byte-identical"):
        cm = ssh(1.0, 2.0)
        model_file = tmp_path / "model.json"
        save_model(model_file, cm.base, cm.grading)
        invocations = [
            ["verify", "--ensemble", "dim_v=2,range=2,count=4,seed=17"],
            ["winding", str(model_file)],
            ["edge", "--fixture", "defective:theta=0.25"],
            ["spectrum", str(model_file), "--samples", "64"],
            ["deform", "--fixture", "dimerized-plus"],
        ]
        for idx, argv in enumerate(invocations):
            first = tmp_path / f"out_{idx}_a"
            second = tmp_path / f"out_{idx}_b"
            code_a = cli_main(argv + ["--out", str(first)])
            code_b = cli_main(argv + ["--out", str(second)])
            assert code_a == code_b == 0
            assert first.read_bytes() == second.read_bytes(), argv
