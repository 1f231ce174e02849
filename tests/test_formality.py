"""Formality criterion, module generators, and the orbifold Euler number."""

import math
from fractions import Fraction

import pytest

from orbitinv import (
    InvariantError,
    Poly,
    betti,
    cup,
    equivariant_poincare,
    euler_number,
    inverse_mod,
    is_formal,
)

from datum_helper import datum
from series_reference import reduced


ONE_MINUS_X2 = Poly((1, 0, -1))


class TestIsFormal:
    def test_three_fixed_circles(self):
        result = is_formal(datum(f=3))
        assert result.formal
        degrees = sorted(gen.degree for gen in result.generators)
        assert degrees == [0, 1, 1, 2, 2, 3]

    def test_positive_genus_is_not_formal(self):
        result = is_formal(datum(g=1, f=2))
        assert not result.formal
        assert "H^1" in result.reason

    def test_nonorientable_genus_one(self):
        result = is_formal(datum(eps="n", g=1, f=1))
        assert result.formal
        assert sorted(gen.degree for gen in result.generators) == [0, 1]

    def test_closed_free_is_not_formal(self):
        result = is_formal(datum(b=2))
        assert not result.formal
        assert "fixed" in result.reason

    def test_one_special_circle_still_formal(self):
        assert is_formal(datum(f=2, s=1)).formal
        assert not is_formal(datum(f=2, s=2)).formal

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            is_formal(datum(t=1))
        with pytest.raises(ValueError, match="closed"):
            is_formal(datum(graph=[["F", "SP"]]))

    def test_generators_are_valid_elements_of_stated_degree(self):
        for inv in (datum(f=4), datum(f=3, s=1), datum(eps="n", g=1, f=3)):
            result = is_formal(inv)
            assert result.formal
            for gen in result.generators:
                assert gen.element.max_degree() == gen.degree

    def test_generator_count_is_twice_f(self):
        for f in range(1, 6):
            for inv in (datum(f=f), datum(f=f, s=1), datum(eps="n", g=1, f=f)):
                assert len(is_formal(inv).generators) == 2 * f


class TestGeneratorSeriesConsistency:
    def test_degree_polynomial_reproduces_series(self):
        for f in range(1, 7):
            for inv in (datum(f=f), datum(f=f, s=1), datum(eps="n", g=1, f=f)):
                result = is_formal(inv)
                coeffs = [0] * 4
                for gen in result.generators:
                    coeffs[gen.degree] += 1
                assert reduced(Poly(coeffs), ONE_MINUS_X2) == equivariant_poincare(inv)

    def test_u_multiples_of_generators_stay_independent_spotcheck(self):
        # freeness means deg-0 and deg-1 generators hit by u give exactly the
        # deg-2 and deg-3 dimensions
        inv = datum(f=3)
        result = is_formal(inv)
        gens = result.generators
        u_image = [cup(g.element.ring.u_class(), g.element) for g in gens]
        assert all(not img.is_zero for img in u_image)

    def test_monotonicity_obstruction_matches_criterion(self):
        for eps in ("o", "n"):
            for g in range(0, 4):
                if eps == "n" and g == 0:
                    continue
                for s in range(0, 4):
                    for f in range(1, 5):
                        inv = datum(eps=eps, g=g, f=f, s=s)
                        drops = betti(inv, 1) > betti(inv, 3)
                        assert drops == (not is_formal(inv).formal)


def brute_inverse(n, m):
    for l in range(1, m):
        if (l * n) % m == 1:
            return l
    raise AssertionError(f"no inverse of {n} mod {m}")


class TestInverseMod:
    def test_spot_values(self):
        assert inverse_mod(2, 3) == 2
        assert inverse_mod(3, 5) == 2

    def test_matches_brute_force_small(self):
        for m in range(2, 60):
            for n in range(1, m):
                if math.gcd(m, n) == 1:
                    assert inverse_mod(n, m) == brute_inverse(n, m)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            inverse_mod(2, 4)


class TestEulerNumber:
    def test_oriented_seifert_value(self):
        inv = datum(b=1, pairs=[(3, 2), (5, 3)])
        assert euler_number(inv) == Fraction(31, 15)

    def test_cancellation_to_zero(self):
        inv = datum(b=-1, pairs=[(2, 1), (2, 1)])
        assert euler_number(inv) == 0

    def test_empty_pair_list(self):
        assert euler_number(datum(b=0)) == 0

    def test_nonorientable_or_special_gives_zero(self):
        assert euler_number(datum(b=0, eps="n", g=1, s=1)) == 0
        assert euler_number(datum(b=0, eps="n", g=2)) == 0
        assert euler_number(datum(b=0, g=1, s=2)) == 0

    def test_fixed_points_rejected(self):
        with pytest.raises(ValueError, match="not defined here"):
            euler_number(datum(f=1))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            euler_number(datum(t=1))

    def test_inadmissible_rejected(self):
        # s > 0 forces b = 0, so the b=1 presentation is not a datum at all
        with pytest.raises(InvariantError, match="euler_number"):
            euler_number(datum(b=1, eps="n", g=1, s=1))
        with pytest.raises(InvariantError):
            euler_number(datum(b=7, eps="n", g=0, pairs=[(4, 2)]))
