"""Deconvolution coefficients and their generating-function oracle."""

import os
import subprocess
import sys
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

import reconkernel
from reconkernel.deconv import (
    deconv_forward_coeff,
    deconv_inverse_coeff,
    double_forward_coeff,
    double_inverse_coeff,
    shifted_taylor_poly,
    tau,
)
from reconkernel.exact import RatPoly, ValidationError
from reconkernel.recon import pair_h_from_f
from oracles import tau_gf_oracle

# frozen even-index values through index 20
TAU_TABLE = {
    0: F(1),
    2: F(-1, 24),
    4: F(7, 5760),
    6: F(-31, 967680),
    8: F(127, 154828800),
    10: F(-73, 3503554560),
    12: F(1414477, 2678117105664000),
    14: F(-8191, 612141052723200),
    16: F(16931177, 49950709902213120000),
    18: F(-5749691557, 669659197233029971968000),
    20: F(91546277357, 420928638260761696665600000),
}


class TestTau:
    @pytest.mark.parametrize("n,expected", sorted(TAU_TABLE.items()))
    def test_frozen_even_values(self, n, expected):
        assert tau(n) == expected

    @pytest.mark.parametrize("n", range(1, 22, 2))
    def test_odd_values_vanish(self, n):
        assert tau(n) == 0

    @pytest.mark.parametrize("n", range(41))
    def test_generating_function_oracle_agrees(self, n):
        assert tau(n) == tau_gf_oracle(n)

    def test_signs_alternate_and_magnitudes_decrease(self):
        values = [tau(2 * k) for k in range(1, 21)]
        for prev, cur in zip(values, values[1:]):
            assert prev * cur < 0
            assert abs(cur) < abs(prev)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
    def test_rejects_bad_index(self, bad):
        with pytest.raises(ValidationError):
            tau(bad)

    def test_cold_calls_fill_memos_without_deep_recursion(self):
        # tau is filled bottom-up, so a fresh process answers deep indices
        # under a tiny recursion limit
        script = (
            "import sys\n"
            "from reconkernel.deconv import tau\n"
            "sys.setrecursionlimit(150)\n"
            "print(tau(300))\n"
        )
        src = str(Path(reconkernel.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(tau(300))]


class TestForwardInverse:
    def test_forward_values(self):
        assert deconv_forward_coeff(0) == 1
        assert deconv_forward_coeff(1) == F(1, 24)
        assert deconv_forward_coeff(2) == F(1, 1920)

    def test_inverse_is_tau(self):
        for l in range(12):
            assert deconv_inverse_coeff(l) == tau(2 * l)

    @pytest.mark.parametrize("k", range(65))
    def test_kronecker_identity(self, k):
        acc = sum(tau(2 * s) * deconv_forward_coeff(k - s) for s in range(k + 1))
        assert acc == (1 if k == 0 else 0)


class TestShiftedTaylor:
    def test_small_orders(self):
        assert shifted_taylor_poly(0) == RatPoly.of([1])
        assert shifted_taylor_poly(1) == RatPoly.of([0, 1])
        assert shifted_taylor_poly(2) == RatPoly.of([F(-1, 24), 0, F(1, 2)])
        assert shifted_taylor_poly(3) == RatPoly.of([0, F(-1, 24), 0, F(1, 6)])

    def test_degree_and_parity(self):
        for s in range(9):
            p = shifted_taylor_poly(s)
            assert p.degree == s
            for m, c in enumerate(p.coeffs):
                if (s - m) % 2 == 1:
                    assert c == 0

    def test_is_the_deconvolution_of_a_monomial(self):
        # the jet of h at xi against the f-derivatives is the deconvolution
        # of the Taylor term xi^k/k!
        for k in range(41):
            monomial = RatPoly.monomial(k, F(1, factorial(k)))
            assert shifted_taylor_poly(k) == RatPoly.of(pair_h_from_f(monomial.coeffs)), k


class TestDoubleReconstruction:
    def test_forward_values(self):
        assert double_forward_coeff(0) == 1
        assert double_forward_coeff(1) == F(1, 12)
        assert double_forward_coeff(2) == F(1, 360)

    def test_inverse_values(self):
        assert double_inverse_coeff(0) == 1
        assert double_inverse_coeff(1) == F(-1, 12)
        # 2*tau_0*tau_4 + tau_2^2 = 7/2880 + 5/2880
        assert double_inverse_coeff(2) == F(1, 240)

    def test_inverse_is_tau_self_convolution(self):
        for l in range(10):
            acc = sum(tau(2 * s) * tau(2 * l - 2 * s) for s in range(l + 1))
            assert double_inverse_coeff(l) == acc

    @pytest.mark.parametrize("k", range(33))
    def test_duality(self, k):
        acc = sum(double_inverse_coeff(s) * double_forward_coeff(k - s) for s in range(k + 1))
        assert acc == (1 if k == 0 else 0)
