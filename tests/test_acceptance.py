"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass line on success; `pytest -v -s` gives the full
checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from cvswap import cli, dv, estimators as est, fock, protocols as proto
from cvswap.fock import CutoffSpec
from cvswap.sampling import derive_seed

from conftest import density_matrix, inner_product, purification_of, random_ensemble, random_pure


def _report(line: str) -> None:
    print(f"PASS  {line}")


TMSS_DEMO_SEED = 11
EIGHT_MODE_SEED = 12


def _tmss_demo_states():
    tmss = fock.prepare("tmss", CutoffSpec((25, 25)), r=1.0)
    vac = fock.basis_state((0,), CutoffSpec((0,)))
    return tmss, vac


def test_criterion_01_tmss_vacuum_probability():
    # simulated two-pair parity estimator, r = 1, 2000 shots x 10 runs
    start = time.monotonic()
    tmss, vac = _tmss_demo_states()
    means = [
        est.parity_overlap_estimate(
            [tmss, vac, vac], [(0, 2), (1, 3)], None, 2000, derive_seed(TMSS_DEMO_SEED, k)
        ).mean.real
        for k in range(10)
    ]
    elapsed = time.monotonic() - start
    grand = float(np.mean(means))
    target = 1.0 / math.cosh(1.0) ** 2
    assert abs(grand - target) <= 0.02, (grand, target)
    assert elapsed < 10.0, elapsed
    _report(
        f"criterion 1: two-mode demo grand mean {grand:.4f} within 0.420 +/- 0.02 "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_02_eight_mode_parallel_fidelity():
    tmss, vac = _tmss_demo_states()
    states = [tmss, vac, vac, tmss, vac, vac]
    pairs = [(0, 2), (1, 3), (4, 6), (5, 7)]
    means = [
        est.parity_overlap_estimate(states, pairs, None, 500, derive_seed(EIGHT_MODE_SEED, k)).mean.real
        for k in range(10)
    ]
    grand = float(np.mean(means))
    target = 1.0 / math.cosh(1.0) ** 4
    assert abs(grand - target) <= 0.05, (grand, target)
    _report(f"criterion 2: eight-mode demo grand mean {grand:.4f} within 0.1764 +/- 0.05")


def test_criterion_03_convergence_grid():
    # the pair cvswap fig2 computes: S(r)|0> and S(-r)|0>, each prepared at
    # cutoff 2 cap
    cap = 40
    m_values = list(range(4, 21))
    for r in (0.8, 1.0, 1.2):
        pair = [fock.prepare("squeezed", CutoffSpec((2 * cap,)), z=z) for z in (r, -r)]
        tol = 10.0 * math.tanh(r) ** (2 * (cap + 1))
        limit = est.analytic_squeezed_overlap(r)
        prev_dev = None
        for m in m_values:
            sim = est.parity_overlap_expectation(pair, [(0, 1)], m)
            closed = est.analytic_swap2m_squeezed(r, m)
            assert abs(sim - closed) <= tol, (r, m, abs(sim - closed), tol)
            dev = sim - limit
            assert (dev > 0) == (m % 2 == 0), (r, m)
            if prev_dev is not None:
                assert abs(dev) < abs(prev_dev), (r, m)
            prev_dev = dev
    _report(
        "criterion 3: finite-threshold values match the closed form within "
        "10*tanh^(2(N+1))r and alternate monotonically around 1/cosh 2r"
    )


def test_criterion_04_global_bound_exactness():
    cap = 130
    for r in (0.8, 1.0, 1.2):
        cut = CutoffSpec((cap,))
        joint = fock.tensor(
            fock.prepare("squeezed", cut, z=r),
            fock.prepare("squeezed", cut, z=-r),
        )
        for m in range(4, 21):
            got = est.error_bound_global(joint, m)
            want = math.tanh(r) ** (2 * (m + 1))
            assert abs(got - want) <= 1e-10, (r, m, abs(got - want))
    _report("criterion 4: global cutoff bound equals tanh^(2(M+1))r to 1e-10")


def test_criterion_05_chernoff_planner_grid():
    for energy in range(1, 101):
        for eps_exp in range(1, 7):
            eps = 10.0 ** (-eps_exp)
            candidate = math.ceil(1.3 * energy + math.log(1.0 / eps))
            plan = est.cutoff_for_coherent_chernoff(float(energy), eps)
            assert plan.M == candidate, (energy, eps, plan.M, candidate)
            assert plan.bound <= eps, (energy, eps, plan.bound)
    _report(
        "criterion 5: ceil(1.3E + ln(1/eps)) meets the Chernoff tail bound with "
        "zero increments for all E in 1..100, eps in 1e-1..1e-6"
    )


def test_criterion_06_oracle_equivalence_suite():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(100):
        cap = int(rng.integers(3, 11))
        a, b = random_pure(rng, cap), random_pure(rng, cap)
        joint = fock.tensor(a, b)
        overlap = abs(inner_product(a, b)) ** 2
        full = est.swap2m_expectation(joint, cap)
        assert abs(overlap - full) <= 1e-10, abs(overlap - full)
        for m in (1, cap // 2, cap):
            approx = est.swap2m_expectation(joint, m)
            bound_global = est.error_bound_global(joint, m)
            bound_local = est.error_bound_local(a, b, m)
            assert abs(overlap - approx) <= bound_global + 1e-12
            assert bound_global <= bound_local + 1e-12
        checked += 1
    assert checked == 100
    _report(
        "criterion 6: 100 random pairs -- overlap equals the full-threshold "
        "expectation to 1e-10 and the bound sandwich holds"
    )


def test_criterion_07_perm_test_suite():
    rng = np.random.default_rng(707)
    rho = random_ensemble(rng, 5, 3)
    mat = density_matrix(rho)
    for n_registers in (2, 3, 4):
        exact = proto.perm_expectation([rho] * n_registers)
        want = complex(np.trace(np.linalg.matrix_power(mat, n_registers)))
        assert abs(exact - want) <= 1e-10, (n_registers, abs(exact - want))
        res = proto.perm_test([rho] * n_registers, 100_000, 7000 + n_registers)
        assert abs(res.mean - exact) <= 5 * res.stderr, n_registers
    a, b = random_pure(rng, 5), random_pure(rng, 5)
    assert proto.perm_test([a, b], 20_000, 71) == est.cv_swap_estimate(a, b, 5, 20_000, 71)
    _report(
        "criterion 7: PERM expectation equals tr(rho^L) to 1e-10 for L in {2,3,4}, "
        "samples agree within 5 stderr, and L=2 matches the pairwise path bitwise"
    )


def test_criterion_08_two_copy_cross_check():
    rng = np.random.default_rng(808)
    rho = random_ensemble(rng, 2, 2)
    psi = purification_of(rho, 2)
    for copies in (2, 3):
        two_copy = proto.two_copy_expectation([psi] * copies)
        perm = proto.perm_expectation([rho] * copies)
        assert abs(two_copy - abs(perm) ** 2) <= 1e-10, (copies, abs(two_copy - abs(perm) ** 2))
    _report("criterion 8: two-copy expectation equals the squared PERM expectation for n = 2, 3")


def test_criterion_09_swap_eigenbasis_families():
    for d in range(2, 8):
        mat, eig = dv.swap_eigenbasis(d, "w")
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(d * d))) <= 1e-12, d
        perm = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                perm[j * d + i, i * d + j] = 1.0
        assert np.max(np.abs(perm @ mat - mat * eig[None, :])) <= 1e-12, d
        assert int(np.sum(eig > 0)) == d * (d + 1) // 2, d
        assert int(np.sum(eig < 0)) == d * (d - 1) // 2, d
    _report(
        "criterion 9: Bell-superposition basis columns are orthonormal SWAP "
        "eigenvectors with multiplicities d(d+1)/2 and d(d-1)/2 for d in 2..7"
    )


def test_criterion_10_hybrid_exactness():
    rng = np.random.default_rng(1010)
    cap = 6
    cut = CutoffSpec((1, cap))
    for _ in range(50):
        amps_a = rng.normal(size=(2, cap + 1)) + 1j * rng.normal(size=(2, cap + 1))
        amps_b = rng.normal(size=(2, cap + 1)) + 1j * rng.normal(size=(2, cap + 1))
        a = fock.FockState(cut, amps_a / np.linalg.norm(amps_a))
        b = fock.FockState(cut, amps_b / np.linalg.norm(amps_b))
        want = abs(inner_product(a, b)) ** 2
        got = proto.hybrid_swap_expectation(a, b, cap)
        assert abs(got - want) <= 1e-10, abs(got - want)
    _report("criterion 10: hybrid expectation equals the direct overlap to 1e-10 on 50 pairs")


def test_criterion_11_cli_reproducibility(tmp_path):
    config = {
        "states": [
            {"kind": "tmss", "r": 1.0, "cutoff": [25, 25]},
            {"kind": "vacuum", "cutoff": [0]},
            {"kind": "vacuum", "cutoff": [0]},
        ],
        "pairs": [[0, 2], [1, 3]],
        "M": None,
        "shots": 500,
        "runs": 3,
        "seed": TMSS_DEMO_SEED,
    }
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        code = cli.main(["overlap", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report("criterion 11: repeated CLI runs produce bit-identical documents")
