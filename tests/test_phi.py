import importlib
import math

import numpy as np
import pytest

from etdac.phi import SLICE, SMALL_ARG_THRESHOLD, cuts, phi, phi_batch
from etdac.phi import _phi_forward, _phi_reciprocal, _phi_taylor
from oracles import phi_reference

# the module itself: etdac's own name phi is the function
phi_module = importlib.import_module("etdac.phi")

# frozen extended-precision reference values (series/direct oracle)
FROZEN = [
    (1, -1.0, 0.6321205588285577),
    (3, -0.01, 0.1662508319464261),
    (2, -0.5, 0.4261226388505337),
    (4, -0.5, 0.03782388873546811),
    (5, -7.3, 0.0035615828324760037),
    (7, -123.4, 1.072939641148916e-05),
    (10, -1.0, 2.5245892027574017e-07),
    (10, -1e6, 2.7557071210096986e-12),
    (6, -3.0, 0.0009599273914511165),
    (2, -2000.0, 0.00049975),
]


class TestPhiValues:
    @pytest.mark.parametrize("j", range(11))
    def test_taylor_limit_at_zero(self, j):
        assert phi(j, 0.0) == pytest.approx(1.0 / math.factorial(j), rel=1e-15)

    def test_index_zero_is_the_exponential(self):
        for z in (-0.1, -1.0, -42.0):
            assert phi(0, z) == pytest.approx(math.exp(z), rel=1e-15)

    @pytest.mark.parametrize("j,z,ref", FROZEN)
    def test_frozen_oracle_values(self, j, z, ref):
        assert phi(j, z) == pytest.approx(ref, rel=1e-13)

    def test_live_oracle_sweep(self):
        # denominator floored at the smallest normal double: phi_0 underflows
        # for z << -700 and float64 carries no relative precision below that
        tiny = np.finfo(np.float64).tiny
        zs = np.concatenate([-np.logspace(-10, 6, 40), [0.0]])
        worst = 0.0
        for j in range(11):
            for z in zs:
                want = float(phi_reference(j, float(z)))
                got = phi(j, float(z))
                worst = max(worst, abs(got - want) / max(abs(want), tiny))
        assert worst <= 1e-13

    def test_points_near_the_small_argument_switch(self):
        for j, z in ((2, -0.75), (3, -1.0), (1, -0.2)):
            assert phi(j, z) == pytest.approx(phi_reference(j, z), rel=1e-13)


class TestPhiInvariants:
    def test_bounded_by_inverse_factorial(self):
        zs = -np.logspace(-8, 6, 200)
        for j in range(1, 11):
            vals = phi_batch(j, zs)
            assert np.all(vals > 0.0)
            assert np.all(vals < 1.0 / math.factorial(j))

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_monotone_scaling(self, lam):
        # lambda^j phi(j, lambda z) <= phi(j, z) for z < 0; the gap shrinks
        # like e^{lambda z} as z -> -inf, below float64 resolution, so
        # strictness is only asserted where the difference is representable
        zs = -np.logspace(-6, 5, 60)
        for j in range(1, 11):
            lhs = lam**j * phi_batch(j, lam * zs)
            rhs = phi_batch(j, zs)
            assert np.all(lhs <= rhs + 1e-12)
        moderate = -np.logspace(-1, 0.9, 25)
        for j in range(1, 11):
            lhs = lam**j * phi_batch(j, lam * moderate)
            rhs = phi_batch(j, moderate)
            assert np.all(lhs < rhs)

    def test_recurrence_consistency(self):
        # phi_{j+1}(z) = (phi_j(z) - 1/j!)/z, benign for |z| >= 1
        zs = -np.logspace(0, 6, 80)
        for j in range(10):
            via_rec = (phi_batch(j, zs) - 1.0 / math.factorial(j)) / zs
            direct = phi_batch(j + 1, zs)
            assert np.max(np.abs(via_rec / direct - 1.0)) <= 1e-12

    @pytest.mark.parametrize("j", range(1, 11))
    def test_branch_agreement_at_boundaries(self, j):
        small_edge = np.array([-max(SMALL_ARG_THRESHOLD, 0.5 * (j + 1))])
        a = _phi_taylor(j, small_edge)[0]
        b = _phi_forward(j, small_edge)[0]
        assert a == pytest.approx(b, rel=1e-12)
        large_edge = np.array([-2.0 * (j + 1)])
        c = _phi_forward(j, large_edge)[0]
        d = _phi_reciprocal(j, large_edge)[0]
        assert c == pytest.approx(d, rel=1e-12)


class TestPhiBatch:
    def test_empty_batch(self):
        out = phi_batch(1, [])
        assert out.shape == (0,)

    def test_two_point_example(self):
        out = phi_batch(1, [0.0, -1.0])
        assert out[0] == 1.0
        assert out[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 7, 10])
    def test_batch_equals_scalar_bitwise(self, j):
        # odd and even powers >= 3 run for j in {3, 5, 7}; numpy's vector
        # loops treat tails and strides apart, hence the odd-length slice
        rng = np.random.default_rng(11)
        zs = -np.concatenate([
            rng.uniform(0.0, 0.4, 300),
            rng.uniform(0.4, 2.0 * (j + 1) + 5.0, 400),
            rng.uniform(2.0 * (j + 1), 1e4, 300),
        ])
        batch = phi_batch(j, zs)
        scalars = np.array([phi(j, float(z)) for z in zs])
        assert np.array_equal(batch, scalars)
        strided = zs[1::3]
        assert strided.size % 2 == 1
        assert np.array_equal(phi_batch(j, strided), phi_batch(j, strided.copy()))
        assert np.array_equal(phi_batch(j, strided), scalars[1::3])

    def test_powers_are_raised_on_positive_bases(self, monkeypatch):
        # numpy's vector pow serves positive bases only; a negative base
        # takes its per-element libm path, about ten times slower
        real_power = np.power
        bases = []

        def spy(x, k, *args, **kwargs):
            bases.append(np.min(x))
            return real_power(x, k, *args, **kwargs)

        monkeypatch.setattr(np, "power", spy)
        for j in range(11):
            # Taylor, forward and reciprocal branches of every index
            zs = -np.concatenate([[0.0, 0.3], np.linspace(0.6, 2.0 * (j + 1) + 1.0, 50), [1e3, 1e6]])
            phi_batch(j, zs)
        assert bases and min(bases) >= 0.0

    def test_batch_preserves_shape(self):
        zs = -np.arange(6, dtype=float).reshape(2, 3)
        assert phi_batch(2, zs).shape == (2, 3)

    @pytest.mark.parametrize("j", [0, 1, 4, 7])
    def test_batch_over_several_slices_equals_scalar_bitwise(self, j):
        # 257 arguments from every branch, tiled past two slices, so that
        # each slice starts at another point of the pattern
        base = -np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 256)])
        reps = 2 * SLICE // base.size + 2
        zs = np.tile(base, reps).reshape(reps, base.size)
        scalars = np.array([phi(j, float(z)) for z in base])
        batch = phi_batch(j, zs)
        assert batch.shape == zs.shape and zs.size > 2 * SLICE
        assert np.array_equal(batch, np.tile(scalars, (reps, 1)))

    @pytest.mark.parametrize("n, size, lengths", [
        (0, 64, [0]), (1, 64, [1]), (64, 64, [64]), (65, 64, [32, 33]), (129, 64, [43, 43, 43]),
        (1200, 500, [400, 400, 400]), (262144, SLICE, [SLICE] * 16), (262145, SLICE, [15420] * 12 + [15421] * 5),
    ])
    def test_cuts_are_near_equal_and_cover_the_range(self, monkeypatch, n, size, lengths):
        # ceil(n / SLICE) slices, never a short tail: the stepper's sliced
        # solves keep the whole solve's bits only on slices of >= 2 columns
        monkeypatch.setattr(phi_module, "SLICE", size)
        parts = cuts(n)
        assert sorted(p.stop - p.start for p in parts) == lengths
        assert parts[0].start == 0 and parts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))


class TestPhiErrors:
    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError):
            phi(1, 0.5)
        with pytest.raises(ValueError):
            phi_batch(1, [-1.0, 0.5])

    @pytest.mark.parametrize("j", [-1, 1.5, "2"])
    def test_bad_index_rejected(self, j):
        with pytest.raises(ValueError):
            phi(j, -1.0)

