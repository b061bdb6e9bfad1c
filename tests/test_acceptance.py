"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the solver at its stated
tolerance and wall-clock budget and prints a single machine-grepable
[PASS]/[FAIL] line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_field, sinprod
from etdac.diagnostics import record
from etdac.grid import Field, Mesh2D, discrete_energy, l2_norm, max_norm
from etdac.phi import phi_batch
from etdac.potentials import FloryHuggins, GinzburgLandau
from etdac.scheme import Vandermonde, make_nodes, make_scheme, sigma_min, tau_max
from etdac.spectral import SpectralPlan, apply_phi
from etdac.stepper import StepContext, polynomial_abs_max, step
from oracles import DenseOperator, brute_poly_max_many, dense_etdrk_step, phi_reference

# frozen golden values, 4 significant digits
GOLDEN_SIGMA_MIN = {
    "uniform": [1.000e+00, 1.654e-01, 2.745e-02, 4.408e-03, 6.807e-04,
                1.017e-04, 1.481e-05, 2.113e-06, 2.971e-07, 4.125e-08],
    "chebyshev": [1.000e+00, 1.654e-01, 3.395e-02, 6.823e-03, 1.338e-03,
                  2.575e-04, 4.884e-05, 9.157e-06, 1.701e-06, 3.136e-07],
}
GOLDEN_TAU_MAX_K2 = [1.250e-01, 1.034e-02, 1.144e-03, 1.378e-04, 1.702e-05,
                     2.118e-06, 2.644e-07, 3.302e-08, 4.126e-09]


def sig4(x: float) -> float:
    return float(f"{x:.4g}")


def report(capsys, num, desc, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num}: {desc} ({elapsed:.2f}s / budget {budget:g}s)")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed <= budget, f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"


def integrate(ctx, u, nsteps):
    for n in range(1, nsteps + 1):
        u, _ = step(ctx, u, n=n)
    return u


def mesh_square(n):
    return Mesh2D(2.0 * math.pi, 2.0 * math.pi, n, n)


def test_criterion_01_minimum_singular_values(capsys):
    t0 = time.perf_counter()
    ok = True
    for kind, golden in GOLDEN_SIGMA_MIN.items():
        for r in range(1, 11):
            got = sig4(sigma_min(Vandermonde(make_nodes(r, kind))))
            ok = ok and got == golden[r - 1]
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "all 20 node-family minimum singular values match "
           "the golden table to 4 significant digits", ok, elapsed, 1.0)


def test_criterion_02_step_size_thresholds(capsys):
    t0 = time.perf_counter()
    ok = tau_max(1, 2.0, "uniform") == math.inf
    for r in range(2, 11):
        got = sig4(tau_max(r, 2.0, "uniform"))
        ok = ok and got == GOLDEN_TAU_MAX_K2[r - 2]
    elapsed = time.perf_counter() - t0
    report(capsys, 2, "energy step-size thresholds at kappa=2 match the "
           "golden table to 4 significant digits, first order unbounded", ok, elapsed, 1.0)


def test_criterion_03_temporal_convergence_orders(capsys):
    # Known failure at r=5, kept as stated rather than loosened: on this
    # benchmark the order-5 temporal error extrapolates to ~1.4e-13 at the
    # finest rung, below the ~1e-12 float64 roundoff accumulated over the
    # 640-step run and 5120-step reference, so the finest-pair ratio is
    # noise over noise.  Measured Linf ladder (tau = 0.1/2^k, k=0..5):
    #   r=3: 1.118e-3 .. 4.270e-8, rates 2.833 2.912 2.957 2.979 2.992  PASS
    #   r=4: 7.303e-5 .. 8.792e-11, rates 3.818 3.914 3.961 3.984 4.006 PASS
    #   r=5: 3.870e-6, 1.379e-7, 4.599e-9, 1.473e-10, 3.698e-12, 1.071e-12
    #        rates 4.811 4.906 4.965 5.316 1.788                        FAIL
    # Measured floor at r=5: the 2560- and 5120-step runs, whose truncation
    # errors are both below ~1e-16, differ by 7.5e-13 (Linf) and 1.7e-12
    # (l2).  The reference alone carries as much roundoff as the 1.07e-12
    # error being measured on the 640-step rung.
    # Order-5 stepping itself is verified against a dense-eigendecomposition
    # oracle at 1e-10 relative in criterion 8.
    t0 = time.perf_counter()
    mesh = mesh_square(128)
    pot = GinzburgLandau()
    plan = SpectralPlan(mesh, 0.1, pot.kappa_min)
    u0 = sinprod(mesh, 0.5)
    t_end = 2.0
    taus = [0.1 * 2.0**-k for k in range(6)]
    ok = True
    rates = {}
    for order in (3, 4, 5):
        spec = make_scheme(order)
        tau_ref = taus[-1] / 8.0
        ref = integrate(StepContext(plan, pot, spec, tau_ref, rescaled=True),
                        u0, round(t_end / tau_ref))
        errs = []
        for tau in taus:
            u = integrate(StepContext(plan, pot, spec, tau, rescaled=True),
                          u0, round(t_end / tau))
            diff = Field(mesh, u.values - ref.values)
            errs.append((max_norm(diff), l2_norm(diff)))
        pair = (math.log2(errs[-2][0] / errs[-1][0]),
                math.log2(errs[-2][1] / errs[-1][1]))
        rates[order] = pair
        ok = ok and pair[0] >= order - 0.25 and pair[1] >= order - 0.25
    elapsed = time.perf_counter() - t0
    shown = ", ".join(f"r={o}: {p[0]:.2f}/{p[1]:.2f}" for o, p in rates.items())
    report(capsys, 3, "finest-pair convergence rates within 0.25 of the "
           f"formal orders in both norms ({shown})", ok, elapsed, 600.0)


def test_criterion_04_unconditional_maximum_bound(capsys):
    t0 = time.perf_counter()
    mesh = mesh_square(128)
    pot = FloryHuggins(0.8, 1.6)
    plan = SpectralPlan(mesh, 0.1, pot.kappa_min)
    ok = True
    for seed in (1, 2, 3, 4, 5):
        u0 = random_field(mesh, seed, -pot.beta + 1e-12, pot.beta - 1e-12)
        for order in (3, 5, 7):
            ctx = StepContext(plan, pot, make_scheme(order), 1.0, rescaled=True)
            u = u0
            for n in range(1, 101):
                u, _ = step(ctx, u, n=n)
                ok = ok and max_norm(u) <= pot.beta + 1e-12
    elapsed = time.perf_counter() - t0
    report(capsys, 4, "rescaled orders 3/5/7 with tau=1 keep 100-step random "
           "runs within beta+1e-12 for 5 seeds", ok, elapsed, 120.0)


def test_criterion_05_guaranteed_energy_dissipation(capsys):
    t0 = time.perf_counter()
    mesh = mesh_square(64)
    pot = GinzburgLandau()
    plan = SpectralPlan(mesh, 0.1, 2.0)
    ok = True
    taus = {}
    for order in (2, 3):
        tau = 0.9 * tau_max(order, 2.0, "uniform", rescaled=True)
        taus[order] = tau
        ctx = StepContext(plan, pot, make_scheme(order), tau, rescaled=True)
        u = sinprod(mesh, 0.5)
        prev = discrete_energy(u, 0.1, pot)
        for n in range(1, 51):
            u, _ = step(ctx, u, n=n)
            energy = discrete_energy(u, 0.1, pot)
            ok = ok and energy <= prev + 1e-10 * (1.0 + abs(prev))
            prev = energy
    elapsed = time.perf_counter() - t0
    report(capsys, 5, "energy monotone over 50 steps at 0.9x the proven "
           f"threshold (tau r=2: {taus[2]:.4g}, r=3: {taus[3]:.4g})", ok, elapsed, 60.0)


def test_criterion_06_observed_dissipation_beyond_threshold(capsys):
    t0 = time.perf_counter()
    mesh = mesh_square(128)
    pot = FloryHuggins(0.8, 1.6)
    plan = SpectralPlan(mesh, 0.1, pot.kappa_min)
    u0 = sinprod(mesh, 0.5)
    violations = 0
    for order in (3, 4, 5, 6):
        for tau in (0.2, 0.1, 0.01):
            ctx = StepContext(plan, pot, make_scheme(order), tau, rescaled=True)
            u = u0
            prev = discrete_energy(u0, 0.1, pot)
            for n in range(1, round(20.0 / tau) + 1):
                u, _ = step(ctx, u, n=n)
                diag = record(ctx, n, u, prev)
                if not diag.dissipation_ok:
                    violations += 1
                prev = diag.energy
    elapsed = time.perf_counter() - t0
    report(capsys, 6, "zero dissipation violations for rescaled orders 3-6 at "
           f"tau in {{0.2, 0.1, 0.01}} to T=20 (observational; saw {violations})",
           violations == 0, elapsed, 300.0)


def test_criterion_07_kernel_norm_inequalities(capsys):
    t0 = time.perf_counter()
    mesh = mesh_square(64)
    plan = SpectralPlan(mesh, 0.1, 2.0)
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        v = Field(mesh, rng.uniform(-1.0, 1.0, mesh.ncells))
        nv = l2_norm(v)
        for k in range(1, 7):
            for t in (0.01, 0.1, 1.0):
                base = l2_norm(apply_phi(plan, k, t, v))
                ok = ok and base <= nv / math.factorial(k) + 1e-12
                for lam in (0.1, 0.5, 0.9):
                    scaled = lam**k * l2_norm(apply_phi(plan, k, lam * t, v))
                    ok = ok and scaled <= base + 1e-12
    elapsed = time.perf_counter() - t0
    report(capsys, 7, "100 random fields satisfy the kernel norm bound and "
           "lambda-monotonicity for k=1..6, t in {0.01, 0.1, 1}", ok, elapsed, 60.0)


def test_criterion_08_dense_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mesh = mesh_square(8)
    pot = GinzburgLandau()
    plan = SpectralPlan(mesh, 0.1, 2.0)
    dense = DenseOperator(mesh, 0.1, 2.0)
    rng = np.random.default_rng(7)
    ok = True
    v = Field(mesh, rng.uniform(-1.0, 1.0, mesh.ncells))
    for j in range(6):
        for s in (0.07, 0.7):
            got = apply_phi(plan, j, s, v).values
            want = dense.apply_phi(j, s, v.values)
            ok = ok and np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    tau = 1.0
    u0 = Field(mesh, rng.uniform(-0.95, 0.95, mesh.ncells))
    for order in (2, 3, 4, 5):
        spec = make_scheme(order)
        nodes = [system.nodes for system in spec.systems]
        for rescaled in (False, True):
            ctx = StepContext(plan, pot, spec, tau, rescaled=rescaled)
            got, _ = step(ctx, u0)
            want = dense_etdrk_step(mesh, 0.1, 2.0, pot, order, nodes, tau,
                                    u0.values, rescaled)
            ok = ok and np.linalg.norm(got.values - want) <= 1e-10 * np.linalg.norm(want)
    elapsed = time.perf_counter() - t0
    report(capsys, 8, "8x8 kernel applications and full standard/rescaled "
           "steps r=2..5 match the dense eigendecomposition to 1e-10", ok, elapsed, 30.0)


def test_criterion_09_kernel_pointwise_accuracy(capsys):
    # The budget times the kernels, not the oracle.  Measured split on a
    # 2-core machine (mpmath 1.3.0 on its pure-Python backend, no gmpy2):
    #   phi_batch, j=0..10 on all 10,001 arguments:   0.024 s
    #   110,011 phi_reference calls at 40 digits:     16.1 s
    # With the oracle inside the timer the criterion took 7.2 s to 17.9 s
    # depending on machine and load, a number no change to the program can
    # move.  So the oracle table is built before t0, and its cost is still
    # printed in the report line.
    zs = np.concatenate([-np.logspace(-10.0, 6.0, 10000), [0.0]])
    t_oracle = time.perf_counter()
    want = [np.array([float(phi_reference(j, z)) for z in zs]) for j in range(11)]
    oracle_s = time.perf_counter() - t_oracle
    t0 = time.perf_counter()
    # denominator floored at the smallest normal double: phi_0 underflows
    # for z << -700 and float64 carries no relative precision below that
    tiny = np.finfo(np.float64).tiny
    worst = 0.0
    for j in range(11):
        got = phi_batch(j, zs)
        rel = np.abs(got - want[j]) / np.maximum(np.abs(want[j]), tiny)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    report(capsys, 9, "phi_0..phi_10 on 10^4 log-spaced arguments match the "
           f"extended-precision oracle to 1e-13 (worst {worst:.2e}; "
           f"oracle {oracle_s:.1f}s untimed)",
           worst <= 1e-13, elapsed, 10.0)


def test_criterion_10_polynomial_maximum_vs_brute_force(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    nsets = 10000
    # coefficient scale keeps the 1e5-point sampling oracle's own
    # discretization error (|P''| h^2 / 8 <= 9e-11) inside the tolerance
    coeffs = rng.uniform(-0.1, 0.1, (7, nsets))
    degrees = rng.integers(0, 7, nsets)
    coeffs[degrees[None, :] < np.arange(7)[:, None]] = 0.0
    got = np.array([polynomial_abs_max(coeffs[: degrees[i] + 1, i])[0]
                    for i in range(nsets)])
    brute = brute_poly_max_many(coeffs)
    low = float(np.min(got - brute))
    high = float(np.max(got - brute))
    ok = low >= -1e-10 and high <= 1e-10
    elapsed = time.perf_counter() - t0
    report(capsys, 10, "10^4 random polynomial maxima within 1e-10 of the "
           f"10^5-point sampling and never below it (range [{low:.1e}, {high:.1e}])",
           ok, elapsed, 30.0)
