import math
from fractions import Fraction

import numpy as np
import pytest

from irmlab import chebyshev as ch
from irmlab.chebyshev import (
    T_to_power,
    cheb_eval,
    mp_moment_quadrature,
    mp_moments,
    orthogonality_check,
    power_to_T,
    product_coeff_identity,
    product_coeffs,
    q_poly,
    q_vs_chebyshev_grid,
    un_pn_identity_exact,
)


class TestScalarEval:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 10000])
    def test_u_at_one(self, n):
        assert cheb_eval("U", n, 1.0) == pytest.approx(n + 1)

    def test_tu_relation(self):
        # 2 T_n = U_n - U_{n-2}
        x, n = 0.3, 7
        lhs = 2 * cheb_eval("T", n, x)
        rhs = cheb_eval("U", n, x) - cheb_eval("U", n - 2, x)
        assert abs(lhs - rhs) < 1e-13

    def test_u2_root(self):
        assert cheb_eval("U", 2, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_against_exact_polynomial(self):
        # exact rational evaluation through the T~ coefficients
        for n in (3, 10, 37):
            coeffs = T_to_power(n)
            for x in (Fraction(1, 3), Fraction(-7, 5), Fraction(9, 8)):
                exact = sum(c * x ** k for k, c in coeffs.items())
                got = 2.0 * cheb_eval("T", n, float(x) / 2.0)
                assert abs(got - float(exact)) < 1e-12 * max(1.0, abs(float(exact)))

    def test_large_n_relative_accuracy(self):
        # against the hyperbolic closed form at a representable point
        n, x = 10000, 1.0 + 1e-9
        phi = math.log(x + math.sqrt((x - 1) * (x + 1)))
        expect = math.sinh((n + 1) * phi) / math.sinh(phi)
        assert cheb_eval("U", n, x) == pytest.approx(expect, rel=1e-12)

    def test_negative_argument_parity(self):
        assert cheb_eval("U", 5, -0.4) == pytest.approx(-cheb_eval("U", 5, 0.4))
        assert cheb_eval("T", 6, -1.7) == pytest.approx(cheb_eval("T", 6, 1.7))

    def test_finite_m_convergence(self):
        # hard-edge scaling: U_M(1 + y/(2M^2)) / (M + 1) -> sin(sqrt(-y)) / sqrt(-y)
        M, y = 2000, -4.0
        val = cheb_eval("U", M, 1.0 + y / (2 * M * M)) / (M + 1.0)
        assert abs(val - math.sin(2.0) / 2.0) <= 1e-3


class TestConversions:
    def test_t2_coefficients(self):
        assert T_to_power(2) == {2: Fraction(1), 0: Fraction(-2)}

    def test_x2_in_t_basis(self):
        assert power_to_T(2) == {2: Fraction(1), 0: Fraction(1)}

    def test_roundtrip_identity(self):
        for m in range(31):
            acc = {}
            for j, cj in power_to_T(m).items():
                for k, ck in T_to_power(j).items():
                    acc[k] = acc.get(k, Fraction(0)) + cj * ck
            acc = {k: v for k, v in acc.items() if v != 0}
            assert acc == {m: Fraction(1)}

    def test_orthogonality_exact(self):
        rep = orthogonality_check(40)
        assert rep["passed"]


class TestProductCoeffs:
    def test_pair_of_ones(self):
        assert product_coeffs([1, 1]) == {0: 1, 2: 1}  # and 1*1 + 1*3 = 4

    def test_nn_contains_zero(self):
        for n in (1, 3, 6):
            assert product_coeffs([n, n]).get(0) == 1

    def test_234_total(self):
        ok, lhs, rhs = product_coeff_identity([2, 3, 4])
        assert ok and lhs == 60

    def test_random_lists(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ms = rng.integers(1, 16, size=int(rng.integers(1, 5))).tolist()
            ok, _, _ = product_coeff_identity(ms)
            assert ok


def p_poly_reference(n, alpha):
    """Monic P_n as the per-degree construction built it: P_0 ... P_n
    inverted again from x^m = sum_k C_MP(m, k) P_k(x), each at width n + 1."""
    alpha = Fraction(alpha)
    polys = []
    for m in range(n + 1):
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[m] = Fraction(1)
        row = ch._cmp_row(m, alpha)
        for k in range(m):
            for i in range(n + 1):
                coeffs[i] -= row[k] * polys[k][i]
        polys.append(coeffs)
    return tuple(polys[n])


def q_poly_reference(n, alpha):
    """Q_n from the three-term recurrence run at full width n + 1."""
    alpha = Fraction(alpha)
    width = n + 1
    prev = [Fraction(1)] + [Fraction(0)] * (width - 1)
    if n == 0:
        return tuple(prev)
    cur = [Fraction(-1), Fraction(1)] + [Fraction(0)] * (width - 2)
    for _ in range(2, n + 1):
        nxt = [Fraction(0)] * width
        for i in range(width - 1):
            nxt[i + 1] += cur[i]
        for i in range(width):
            nxt[i] += -(1 + alpha) * cur[i] - alpha * prev[i]
        prev, cur = cur, nxt
    return tuple(cur)


ALPHAS = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]


class TestMPFamily:
    def test_mu1_is_one(self):
        for a in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            assert mp_moments(a, 1)[1] == 1

    def test_mu2(self):
        a = Fraction(1, 3)
        assert mp_moments(a, 2)[2] == 1 + a

    def test_quadrature_oracle_alpha_one(self):
        mus = mp_moments(1, 6)
        for k in range(7):
            assert abs(float(mus[k]) - mp_moment_quadrature(1.0, k)) < 1e-6

    def test_quadrature_oracle_alpha_half(self):
        mus = mp_moments(Fraction(1, 2), 6)
        for k in range(7):
            assert abs(float(mus[k]) - mp_moment_quadrature(0.5, k)) < 1e-6

    def test_cmp_edge_cases(self):
        a = Fraction(1, 4)
        assert ch._cmp_row(3, a)[0] == mp_moments(a, 3)[3]
        assert ch._cmp_row(4, a)[4] == 1

    def test_q2_value(self):
        q = q_poly(2, Fraction(1, 4))
        assert q(Fraction(1)) == Fraction(-1, 4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_p_family_matches_per_degree_construction(self, alpha):
        reference = [p_poly_reference(m, alpha) for m in range(13)]
        for n in range(13):
            family = ch._p_family(n, alpha)
            assert len(family) == n + 1
            for m in range(n + 1):
                assert family[m] == reference[m]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_p_family_inverts_cmp(self, alpha):
        # x^m = sum_k C_MP(m, k) P_k(x), coefficient by coefficient
        family = ch._p_family(12, alpha)
        for m in range(13):
            acc = [Fraction(0)] * (m + 1)
            for k, c in enumerate(ch._cmp_row(m, alpha)):
                for i, pc in enumerate(family[k]):
                    acc[i] += c * pc
            assert acc == [Fraction(0)] * m + [Fraction(1)]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_q_poly_matches_full_width_recurrence(self, alpha):
        for n in range(17):
            assert q_poly(n, alpha).coefficients == q_poly_reference(n, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_un_pn_exact(self, alpha):
        for n in range(1, 13):
            assert un_pn_identity_exact(n, alpha)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_q_vs_chebyshev(self, alpha):
        worst = max(q_vs_chebyshev_grid(n, alpha) for n in range(1, 21))
        assert worst <= 1e-10
