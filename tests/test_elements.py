"""Cup products, module action, degree decomposition, and the ring axioms."""

import hashlib
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

import orbitinv.elements
import orbitinv.polyq
from orbitinv import (
    ContextError,
    EnumerationBounds,
    EquivariantCohomology,
    OrbitInvariants,
    Poly,
    RelationError,
    cup,
    degree_decompose,
    enumerate_invariants,
    is_formal,
    module_action,
    parse,
)

from series_reference import monic as reference_monic, poly_divmod

U = Poly((0, 1))


def ring_for(f=2, g=0, s=0, eps="o"):
    return EquivariantCohomology(
        OrbitInvariants(b=0, eps=eps, g=g, f=f, s=s, t=0))


class TestConstruction:
    def test_zero_element(self):
        assert ring_for().zero().is_zero

    def test_theta_difference(self):
        ring = ring_for(f=2)
        x = ring.from_parts(C=(1, -1), q=(1, -1))
        assert not x.is_zero
        assert x.max_degree() == 1

    def test_relation_1_failure_is_named(self):
        ring = ring_for(f=2)
        with pytest.raises(RelationError, match=r"relation \(1\)"):
            ring.from_parts(C=(1, 0), q=(1, 0))

    def test_relation_2_failure_is_named(self):
        ring = ring_for(f=2)
        with pytest.raises(RelationError, match=r"relation \(2\)"):
            ring.from_parts(D=1)

    def test_relation_3_failure_is_named(self):
        ring = ring_for(f=2)
        with pytest.raises(RelationError, match=r"relation \(3\)"):
            ring.from_parts(q=(1, -1))

    def test_rejects_open_data(self):
        with pytest.raises(ValueError, match="closed"):
            EquivariantCohomology(OrbitInvariants(b=0, eps="o", g=0, f=1, s=0, t=1))

    def test_rejects_fixed_point_free_data(self):
        with pytest.raises(ValueError, match="fixed circle"):
            EquivariantCohomology(OrbitInvariants(b=2, eps="o", g=0, f=0, s=0, t=0))

    def test_no_beta_classes_for_nonorientable(self):
        ring = ring_for(f=1, g=1, eps="n")
        with pytest.raises(ValueError, match="B classes"):
            ring.from_parts(B=(1,))
        x = ring.from_parts(A=(1,), C=(-1,), q=(-1,))
        assert x.B == ()


class TestCup:
    def test_degree_one_squares_vanish(self):
        ring = ring_for(f=2)
        theta = ring.from_parts(C=(1, -1), q=(1, -1))
        assert cup(theta, theta).is_zero

    def test_theta_against_u_delta(self):
        ring = ring_for(f=2)
        theta = ring.from_parts(C=(1, -1), q=(1, -1))
        u_delta = ring.from_parts(p=(U, -U))
        expected = ring.from_parts(q=(U, U))  # u*theta_1 + u*theta_2
        assert cup(theta, u_delta) == expected

    def test_u_delta_squared(self):
        ring = ring_for(f=2)
        x = ring.from_parts(p=(U, 0))
        assert cup(x, x) == ring.from_parts(p=(U * U, 0))

    def test_unit_is_identity(self):
        ring = ring_for(f=3, g=1)
        one = ring.unit()
        samples = [
            ring.zero(),
            ring.from_parts(C=(1, -1, 0), q=(1, -1, 0)),
            ring.from_parts(D=2, A=(1,), B=(-1,), p=(2, Poly((2, 5)), 2)),
            ring.u_class(),
        ]
        for x in samples:
            assert cup(one, x) == x
            assert cup(x, one) == x

    def test_context_mismatch(self):
        with pytest.raises(ContextError):
            cup(ring_for(f=2).unit(), ring_for(f=3).unit())


class TestOperators:
    def test_star_of_elements_is_cup(self):
        ring = ring_for(f=2, g=1, s=1)
        x = ring.from_parts(D=2, A=(1,), B=(-1,), C=(1, -1), q=(Poly((1, 2)), -1),
                            p=(Poly((2, 1)), 2))
        y = ring.from_parts(C_se=(1,), C=(-1, 0), q=(-1, U))
        assert x * y == cup(x, y)
        assert y * x == cup(y, x)

    @pytest.mark.parametrize("c", [3, -1, 0, Fraction(1, 2)])
    def test_star_of_a_scalar_scales(self, c):
        x = ring_for(f=2).from_parts(D=1, p=(Poly((1, 1)), 1), C=(1, -1), q=(1, -1))
        assert c * x == x * c == x.scaled(c)

    def test_star_of_a_float_is_refused(self):
        x = ring_for(f=2).unit()
        with pytest.raises(TypeError):
            x * 1.5
        with pytest.raises(TypeError):
            1.5 * x


class TestRingIdentity:
    def test_rings_of_equal_data_are_equal(self):
        a = ring_for(f=2, g=1, s=1)
        b = EquivariantCohomology(parse("{b=0;(o,g=1,f=2,s=1,t=0)}"))
        assert a == b and hash(a) == hash(b)
        assert a.unit() == b.unit()
        assert repr(a) == "EquivariantCohomology({b=0;(o,g=1,f=2,s=1,t=0)})"

    def test_rings_of_different_data_differ(self):
        assert ring_for(f=2) != ring_for(f=3)
        assert ring_for(f=2) != ring_for(f=2).inv
        assert (ring_for(f=2) == "ring") is False


class TestModuleAction:
    def test_u_times_unit(self):
        ring = ring_for(f=2)
        assert module_action(1, ring.unit()) == ring.u_class()

    def test_u_times_theta(self):
        ring = ring_for(f=2)
        theta = ring.from_parts(C=(1, -1), q=(1, -1))
        assert module_action(1, theta) == ring.from_parts(q=(U, -U))

    def test_power_zero(self):
        ring = ring_for(f=2)
        x = ring.from_parts(C=(1, -1), q=(1, -1))
        assert module_action(0, x) == x

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            module_action(-1, ring_for().unit())

    @pytest.mark.parametrize("power", [True, False, 1.5, 2.0, "2", Fraction(2), None])
    def test_non_integer_power_rejected(self, power):
        with pytest.raises(TypeError, match="power must be an integer"):
            module_action(power, ring_for().unit())

    def test_numpy_integer_power(self):
        np = pytest.importorskip("numpy")
        ring = ring_for(f=2)
        for k in range(3):
            assert module_action(np.int64(k), ring.unit()) == module_action(k, ring.unit())


class TestDegreeDecompose:
    def test_zero_gives_empty_map(self):
        assert degree_decompose(ring_for().zero()) == {}

    def test_pure_scalar(self):
        ring = ring_for(f=2)
        one = ring.unit()
        parts = degree_decompose(one)
        assert list(parts) == [0] and parts[0] == one

    def test_mixed_element(self):
        ring = ring_for(f=2)
        x = ring.from_parts(D=1, p=(Poly((1, 1)), 1), q=(0, U))
        parts = degree_decompose(x)
        assert sorted(parts) == [0, 2, 3]

    def test_components_sum_back(self):
        ring = ring_for(f=3, g=2, s=1)
        x = ring.from_parts(
            D=Fraction(1, 2), A=(1, 0), B=(0, 2), C=(1, -1, 0), C_se=(-3,),
            p=(Poly((Fraction(1, 2), 1)), Poly((Fraction(1, 2), 0, 4)), Fraction(1, 2)),
            q=(Poly((1, 2)), Poly((-1, 0, 1)), 0))
        parts = degree_decompose(x)
        total = ring.zero()
        for piece in parts.values():
            total = total + piece
        assert total == x
        for degree, piece in parts.items():
            assert piece.max_degree() == degree


def random_element(ring, rng, max_u_degree=4):
    """A random valid element with small rational coefficients."""
    def coeff():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))

    A = [coeff() for _ in range(ring.g)]
    B = [coeff() for _ in range(ring.g)] if ring.orientable else None
    C_se = [coeff() for _ in range(ring.s)]
    C = [coeff() for _ in range(ring.f)]
    # repair relation (1) using the last available theta coefficient
    C[-1] = -(sum(A) + sum(B or []) + sum(C_se) + sum(C[:-1]))
    D = coeff()
    p = [Poly([D] + [coeff() for _ in range(rng.randint(0, max_u_degree))])
         for _ in range(ring.f)]
    q = [Poly([C[i]] + [coeff() for _ in range(rng.randint(0, max_u_degree))])
         for i in range(ring.f)]
    return ring.from_parts(D=D, A=A, B=B, C=C, C_se=C_se, p=p, q=q)


class TestRingAxioms:
    def test_bilinear_associative_commutative(self):
        rng = random.Random(12)
        for _ in range(120):
            ring = ring_for(f=rng.randint(1, 4), g=rng.randint(0, 2), s=rng.randint(0, 2))
            a, b, c = (random_element(ring, rng) for _ in range(3))
            assert cup(a + b, c) == cup(a, c) + cup(b, c)
            assert cup(a, b + c) == cup(a, b) + cup(a, c)
            assert cup(cup(a, b), c) == cup(a, cup(b, c))
            assert cup(a, b) == cup(b, a)

    def test_degree_one_products_vanish(self):
        rng = random.Random(13)
        for _ in range(80):
            ring = ring_for(f=rng.randint(1, 4), g=rng.randint(0, 2), s=rng.randint(0, 2))
            a = degree_decompose(random_element(ring, rng)).get(1)
            b = degree_decompose(random_element(ring, rng)).get(1)
            if a is not None and b is not None:
                assert cup(a, b).is_zero

    def test_module_action_adds_exponents(self):
        rng = random.Random(14)
        for _ in range(40):
            ring = ring_for(f=rng.randint(1, 3), g=rng.randint(0, 1))
            x = random_element(ring, rng, max_u_degree=2)
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            assert module_action(m + n, x) == module_action(m, module_action(n, x))

    def test_mixed_products_equal_sum_of_homogeneous_products(self):
        rng = random.Random(15)
        for _ in range(60):
            ring = ring_for(f=rng.randint(1, 3), g=rng.randint(0, 2), s=rng.randint(0, 1))
            a = random_element(ring, rng, max_u_degree=3)
            b = random_element(ring, rng, max_u_degree=3)
            total = ring.zero()
            for pa in degree_decompose(a).values():
                for pb in degree_decompose(b).values():
                    total = total + cup(pa, pb)
            assert total == cup(a, b)


def random_ring(rng):
    g = rng.randint(0, 2)
    eps = rng.choice("on") if g else "o"
    return ring_for(f=rng.randint(1, 4), g=g, s=rng.randint(0, 2), eps=eps)


def parts_of(x):
    return dict(D=x.D, A=x.A, B=x.B if x.ring.orientable else None, C=x.C,
                C_se=x.C_se, p=x.p, q=x.q)


class TestOperationsPreserveRelations:
    """Relations (1)-(3) are checked only by ``from_parts``; these tests keep
    the identities that the operations preserve them."""

    def test_module_action_is_repeated_cup_with_u(self):
        rng = random.Random(16)
        for _ in range(60):
            ring = random_ring(rng)
            x = random_element(ring, rng)
            expected = x
            for k in range(4):
                assert module_action(k, x) == expected
                expected = cup(ring.u_class(), expected)

    def test_results_rebuild_through_from_parts(self):
        rng = random.Random(17)
        for _ in range(80):
            ring = random_ring(rng)
            a, b = random_element(ring, rng), random_element(ring, rng)
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
            results = [cup(a, b), a + b, a - b, a.scaled(c),
                       module_action(rng.randint(1, 3), a), *degree_decompose(a).values()]
            for x in results:
                assert ring.from_parts(**parts_of(x)) == x


class TestNoRecheckInOperations:
    """Operations on valid elements neither build through ``from_parts`` nor
    rebuild ``u_class()``."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(EquivariantCohomology, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return real(self, *args, **kwargs)
            return wrapper

        for name in ("from_parts", "u_class"):
            monkeypatch.setattr(EquivariantCohomology, name, counting(name))
        return calls

    @pytest.mark.parametrize("operation", [
        cup,
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x.scaled(Fraction(-3, 2)),
        lambda x, y: 3 * y,
        lambda x, y: module_action(1, x),
        lambda x, y: module_action(3, y),
    ], ids=["cup", "add", "sub", "scaled", "rmul", "module_action_1", "module_action_3"])
    def test_operations_build_nothing(self, builds, operation):
        ring = ring_for(f=2, g=1, s=1)
        x = ring.from_parts(D=2, A=(1,), B=(-1,), C=(1, -1), q=(Poly((1, 2)), -1),
                             p=(Poly((2, 1)), 2))
        y = ring.from_parts(C_se=(1,), C=(-1, 0), q=(-1, U))
        builds.clear()
        operation(x, y)
        assert builds == []


class TestExactScalars:
    @pytest.mark.parametrize("bad", [0.1, Decimal("0.5"), "1/3"], ids=["float", "Decimal", "str"])
    def test_inexact_scalars_refused(self, bad):
        ring = ring_for(f=2)
        named = re.escape(repr(bad))
        with pytest.raises(TypeError, match=named):
            Poly((1, bad))
        with pytest.raises(TypeError, match=named):
            ring.from_parts(D=bad, p=(Poly((1,)),) * 2)
        with pytest.raises(TypeError, match=named):
            ring.from_parts(C=(bad, 0), q=(1, 0))
        with pytest.raises(TypeError, match=named):
            ring.from_parts(p=(bad, bad))
        with pytest.raises(TypeError, match=named):
            ring.unit().scaled(bad)

    def test_string_is_not_a_coefficient_sequence(self):
        with pytest.raises(TypeError):
            Poly("12")

    def test_integers_stay_int(self):
        coeffs = Poly((True, 2, Fraction(1, 2), Fraction(4, 2))).coeffs
        assert coeffs == (1, 2, Fraction(1, 2), 2)
        assert [type(c) for c in coeffs] == [int, int, Fraction, Fraction]
        ring = ring_for(f=2)
        theta = ring.from_parts(C=(1, -1), q=(1, -1))
        x = cup(module_action(2, ring.unit()) + theta, theta.scaled(3))
        scalars = [x.D, *x.C, *(c for pl in x.p + x.q for c in pl.coeffs)]
        assert all(type(c) is int for c in scalars)

    def test_numpy_integers_become_int(self):
        np = pytest.importorskip("numpy")
        assert orbitinv.polyq.exact(np.int64(3)) == 3
        assert type(orbitinv.polyq.exact(np.int64(3))) is int
        coeffs = Poly((np.int64(1), np.int8(2))).coeffs
        assert coeffs == (1, 2)
        assert [type(c) for c in coeffs] == [int, int]
        x = ring_for(f=2).from_parts(D=np.int64(2), p=(2, 2))
        assert x == ring_for(f=2).from_parts(D=2, p=(2, 2))
        assert type(x.D) is int

    def test_arithmetic_results_match_public_construction(self, monkeypatch):
        """Ring operations build their results without mapping ``exact``
        again; routing them through the public ``Poly(...)`` changes no
        coefficient and no coefficient type."""
        gens = [gen.element for gen in
                is_formal(parse("{b=0;(o,g=0,f=2,s=0,t=0)}")).generators]
        gens += [gen.scaled(Fraction(1, 2)) for gen in gens]

        def results():
            return ([cup(a, b) for a in gens for b in gens]
                    + [module_action(k, a) for k in range(4) for a in gens])

        def coefficients(x):
            return [pl.coeffs for pl in x.p + x.q]

        fast = results()
        for module in (orbitinv.polyq, orbitinv.elements):
            monkeypatch.setattr(module, "_poly", Poly)
        public = results()
        assert fast == public
        for x, y in zip(fast, public):
            assert coefficients(x) == coefficients(y)
            assert ([list(map(type, cs)) for cs in coefficients(x)]
                    == [list(map(type, cs)) for cs in coefficients(y)])
        types = {type(c) for x in fast for cs in coefficients(x) for c in cs}
        assert types == {int, Fraction}

    def test_division_stays_rational(self):
        quo, rem = poly_divmod(Poly((1, 0, 1)), Poly((0, 2)))
        monic = reference_monic(Poly((1, 2)))
        assert quo == Poly((0, Fraction(1, 2))) and rem == Poly((1,))
        assert monic == Poly((Fraction(1, 2), 1))
        assert not any(isinstance(c, float) for c in quo.coeffs + rem.coeffs + monic.coeffs)


class TestRender:
    def test_constant_class(self):
        one = ring_for(f=2).unit()
        assert one.render() == "1"
        assert one.scaled(2).render() == "2"
        assert one.scaled(Fraction(-1, 2)).render() == "-1/2"

    def test_mixed_elements(self):
        ring = ring_for(f=2)
        x = ring.from_parts(D=2, p=(Poly((2, 3)), 2), C=(1, -1), q=(1, -1))
        assert x.render() == "2 + 3*u*delta_1 + theta_1 - theta_2"
        half = Fraction(-1, 2)
        y = ring.from_parts(D=half, p=(Poly((half, 0, 2)), half), q=(0, -U))
        assert y.render() == "-1/2 + 2*u^2*delta_1 - u*theta_2"


class TestAlgebraPin:
    """Sums, multiples, cup products, the module action and the degree
    split of the formal generators, and of mixed sums of them, pinned by the
    SHA-256 of their ``repr``s over every formal datum of a census box."""

    def test_results_pinned(self):
        digest = hashlib.sha256()
        formal = 0
        for inv in enumerate_invariants(EnumerationBounds(max_g=1, max_f=3, max_s=1)):
            result = is_formal(inv)
            if not result.formal:
                continue
            formal += 1
            gens = [gen.element for gen in result.generators]
            pool = gens + [x + y.scaled(Fraction(1, 2)) for x, y in zip(gens, gens[1:])]
            for x in pool:
                values = [-x, x.scaled(3), x.scaled(Fraction(-2, 3)),
                          *(module_action(k, x) for k in range(3)),
                          sorted(degree_decompose(x).items()), x.is_zero, x.max_degree()]
                for y in pool:
                    values += [x + y, x - y, cup(x, y)]
                digest.update(repr(values).encode())
        assert formal == 9
        assert digest.hexdigest() == (
            "3beb65d41e370d86b89ab2fc995acedf0cb5f86b895c67f8f44c0a854b13afb3")
