"""Acceptance suite: one check per shipped guarantee, at stated scale.

Each test prints a PASS line on success; pytest's own report carries the
fail side.  Stated runtime budgets are asserted inside the tests.
"""

import time
from fractions import Fraction as F

import pytest

from reconkernel.deconv import (
    deconv_forward_coeff,
    deconv_inverse_coeff,
    double_forward_coeff,
    double_inverse_coeff,
    tau,
)
from reconkernel.exact import (
    RatFunction,
    RatPoly,
    poly_eval,
    sturm_real_root_count,
)
from reconkernel.harness import convergence_study, halving_slope, non_interpolation_check
from reconkernel.recon import basis, face_coeffs, poly_sliding_average
from reconkernel.vandermonde import CoeffTable, Stencil, inv_vandermonde, nu, vandermonde
from reconkernel.weno import (
    Lambda,
    beta_form,
    sigma_pole_analysis,
    sigma_values_at_half,
    sigma_weights,
)
from oracles import face_coeffs_shu_oracle, matmul, tau_gf_oracle

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


def test_criterion_01_tau_table():
    start = time.perf_counter()
    for n in range(22):
        expected = TAU_TABLE.get(n, F(0)) if n % 2 == 0 else F(0)
        assert tau(n) == expected, f"tau({n})"
        assert tau_gf_oracle(n) == expected, f"tau_gf_oracle({n})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: tau table 0..21 on both routes ({elapsed:.2f}s)")


def test_criterion_02_deconvolution_identity_and_duality():
    start = time.perf_counter()
    for k in range(65):
        total = sum(
            (deconv_inverse_coeff(s) * deconv_forward_coeff(k - s) for s in range(k + 1)),
            F(0),
        )
        assert total == (1 if k == 0 else 0), f"single-fold identity at k={k}"
    for k in range(33):
        total = sum(
            (double_inverse_coeff(s) * double_forward_coeff(k - s) for s in range(k + 1)),
            F(0),
        )
        assert total == (1 if k == 0 else 0), f"two-fold duality at k={k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: delta identity k<=64, duality k<=32 ({elapsed:.2f}s)")


def test_criterion_03_inverse_vandermonde():
    start = time.perf_counter()
    checked = 0
    for mm in range(-6, 7):
        for mp in range(-6, 7):
            if mm + mp < 0:
                continue
            s = Stencil(mm, mp)
            assert matmul(inv_vandermonde(s), vandermonde(s)) == CoeffTable.identity(s.m + 1)
            for m in range(s.m + 1):
                for k in range(s.m + 1):
                    assert nu(s, m, k) == (1 if m == k else 0)
            checked += 1
    assert Stencil(-1, 4).m == 3  # negative-side stencils are in the sweep
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: V_inv V = I and nu = delta on {checked} stencils ({elapsed:.2f}s)")


def test_criterion_04_centered_reconstruction_polynomials():
    b = basis(Stencil(1, 1))
    assert b.alpha_h[0] == RatPoly.of([F(-1, 24), F(-1, 2), F(1, 2)])
    assert b.alpha_h[1] == RatPoly.of([F(13, 12), 0, -1])
    assert b.alpha_h[2] == RatPoly.of([F(-1, 24), F(1, 2), F(1, 2)])
    assert face_coeffs(Stencil(1, 1)) == (F(-1, 6), F(5, 6), F(1, 3))
    print("PASS criterion 4: (1,1) reconstructing quadratics and face coefficients")


def test_criterion_05_product_form_equivalence():
    checked = 0
    for mm in range(-6, 7):
        for mp in range(-6, 7):
            if mm + mp < 0:
                continue
            s = Stencil(mm, mp)
            assert face_coeffs(s) == face_coeffs_shu_oracle(s)
            checked += 1
    print(f"PASS criterion 5: face coefficients match the product-form oracle on {checked} stencils")


def test_criterion_06_sliding_average_pair_identity():
    start = time.perf_counter()
    checked = 0
    for mm in range(-10, 11):
        for mp in range(-10, 11):
            if not 0 <= mm + mp <= 10:
                continue
            b = basis(Stencil(mm, mp))
            for ph, pf in zip(b.alpha_h, b.alpha_f):
                assert poly_sliding_average(ph) == pf
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 6: pair identity on {checked} stencils with M <= 10 ({elapsed:.2f}s)")


def test_criterion_07_weight_consistency_and_classic_values():
    start = time.perf_counter()
    checked = 0
    one = RatFunction.constant(1)
    for mm in range(-6, 7):
        for mp in range(-6, 7):
            m = mm + mp
            if not 2 <= m <= 8:
                continue
            for levels in range(1, m):
                if abs(mm - levels) > 6 or abs(mp - levels) > 6:
                    continue
                family = sigma_weights(Stencil(mm, mp), levels)
                total = RatFunction.constant(0)
                for w in family.weights:
                    total = total + w
                assert total == one
                checked += 1
    assert sigma_values_at_half(Stencil(2, 2), 2) == (F(1, 10), F(3, 5), F(3, 10))
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: sigma sums to 1 on {checked} subdivisions; classic five-cell values ({elapsed:.2f}s)")


def test_criterion_08_weight_positivity():
    start = time.perf_counter()
    checked = 0
    for mm in range(-6, 7):
        for mp in range(-6, 7):
            m = mm + mp
            if m < 2:
                continue
            for levels in range(1, m):
                if not (mp > 0 and levels <= min(mm + 1, mp)):
                    continue
                values = sigma_values_at_half(Stencil(mm, mp), levels)
                assert all(v > 0 for v in values), (mm, mp, levels)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 8: exact positivity on {checked} in-condition subdivisions ({elapsed:.2f}s)")


def test_criterion_09_denominator_roots_all_real():
    start = time.perf_counter()
    checked = 0
    for mm in range(0, 7):
        for mp in range(0, 7 - mm):
            m = mm + mp
            if m < 2:
                continue
            for levels in range(1, m):
                family = sigma_weights(Stencil(mm, mp), levels)
                for report in sigma_pole_analysis(family):
                    assert report.real_root_count == report.denominator.degree
                    if report.denominator.degree > 0:
                        bound = 1 + max(abs(c) for c in report.denominator.coeffs)
                        assert sturm_real_root_count(report.denominator, -bound, bound) == report.denominator.degree
                    checked += 1
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 9: all-real denominator roots on {checked} weight functions ({elapsed:.2f}s)")


def test_criterion_10_smoothness_form_identity():
    form = beta_form(Stencil(1, 1))
    d2, d1 = (1, -2, 1), (1, 0, -1)
    for i in range(3):
        for j in range(3):
            assert form.matrix[i, j] == F(13, 12) * d2[i] * d2[j] + F(1, 4) * d1[i] * d1[j]
    # derived oracle: assemble the matrix from exact derivative integrals
    alpha = basis(Stencil(1, 1)).alpha_h
    for i in range(3):
        for j in range(3):
            entry = F(0)
            for k in (1, 2):
                pi, pj = alpha[i], alpha[j]
                for _ in range(k):
                    pi, pj = pi.derivative(), pj.derivative()
                anti = (pi * pj).antiderivative()
                entry += poly_eval(anti, F(1, 2)) - poly_eval(anti, F(-1, 2))
            assert form.matrix[i, j] == entry
    print("PASS criterion 10: (1,1) smoothness form equals the two-squares identity")


def lambda_face_oracle(s, order):
    # reconstruct (x - 1/2)^order / order! from its exact cell averages; at
    # the face every derivative vanishes except the requested one, so the
    # reconstruction error there is the bare constant
    fact = F(1)
    for i in range(2, order + 1):
        fact *= i
    h = RatPoly.of([F(-1, 2), 1]) ** order * (1 / fact)
    f = poly_sliding_average(h)
    value = sum(c * poly_eval(f, node) for c, node in zip(face_coeffs(s), s.offsets()))
    return value - poly_eval(h, F(1, 2))


@pytest.mark.parametrize(
    "s,order,expected",
    [
        (Stencil(1, 1), 3, F(1, 12)),
        (Stencil(0, 0), 1, F(-1, 2)),
        (Stencil(0, 1), 2, F(1, 6)),
    ],
    ids=["(1,1)-order3", "(0,0)-order1", "(0,1)-order2"],
)
def test_criterion_11_face_error_constants(s, order, expected):
    value = Lambda(s, order)
    assert value == lambda_face_oracle(s, order), "cross-check against the Taylor oracle"
    assert value == expected
    print(f"PASS criterion 11: Lambda({s}, {order}) = {expected}")


def test_criterion_12_convergence_orders():
    start = time.perf_counter()
    cases = [
        (Stencil(1, 1), 3),
        (Stencil(2, 1), 4),
        (Stencil(2, 2), 5),
        (Stencil(3, 2), 6),
    ]
    for s, order in cases:
        for target in ("face", "derivative"):
            report = convergence_study(s, target)
            assert abs(report.fitted_order - order) < 0.1, (s, target, report.fitted_order)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 12: eight fitted orders within 0.1 of M+1 ({elapsed:.2f}s)")


def test_criterion_13_non_interpolation():
    gap = non_interpolation_check(Stencil(1, 1), 0.01)
    assert gap > 0
    slope = halving_slope(Stencil(1, 1), 0.01)
    assert abs(slope - 3) < 0.15
    print(f"PASS criterion 13: nodal mismatch {gap:.3e} > 0, halving slope {slope:.3f}")
