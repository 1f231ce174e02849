"""The signed-sum text of polynomials, Poincare series and cohomology classes,
pinned string by string."""

from fractions import Fraction as Q

import pytest

from orbitinv import (
    EquivariantCohomology,
    OrbitInvariants,
    Poly,
    equivariant_poincare,
    orbit_space_poincare,
    parse,
)

POLY_TEXTS = [
    ((), "0"),
    ((5,), "5"),
    ((-3,), "-3"),
    ((Q(-1, 3),), "-1/3"),
    ((0, -1), "-x"),
    ((1, 0, -1), "1 - x^2"),
    ((0, 2), "2x"),
    ((-2, 1, 0, -1), "-2 + x - x^3"),
    ((Q(1, 2), 0, 0, Q(-3, 4), 1), "1/2 - 3/4x^3 + x^4"),
    ((Q(1), Q(-1), Q(2)), "1 - x + 2x^2"),
    ((0, 0, 0, 0, 0, 7), "7x^5"),
    ((0, 0, -1, 0, 1), "-x^2 + x^4"),
]


@pytest.mark.parametrize("coeffs, text", POLY_TEXTS)
def test_poly_render(coeffs, text):
    assert Poly(coeffs).render() == text


# (datum, render, render_expansion at 0, 2 and 5): the three reduced shapes
# P/1, over 1 - x and over 1 - x^2
SERIES_TEXTS = [
    ("{b=3;(o,g=1,f=0,s=0,t=0)}", "1 + 2x + x^2",
     ["1 + ...", "1 + 2x + x^2", "1 + 2x + x^2"]),
    ("{b=0;(o,g=1,f=2,s=1,t=0)}", "(1 + 3x - 2x^2)/(1 - x)",
     ["1 + ...", "1 + 4x + 2x^2 + ...", "1 + 4x + 2x^2 + 2x^3 + 2x^4 + 2x^5 + ..."]),
    ("{b=0;(n,g=2,f=1,s=0,t=1);G=[<F,RP,SE,RP>]}", "(1 + 4x + x^2 - 3x^3)/(1 - x^2)",
     ["1 + ...", "1 + 4x + 2x^2 + ...", "1 + 4x + 2x^2 + x^3 + 2x^4 + x^5 + ..."]),
]


@pytest.mark.parametrize("text, rendered, prefixes", SERIES_TEXTS)
def test_series_render(text, rendered, prefixes):
    series = equivariant_poincare(parse(text))
    assert series.render() == str(series) == rendered
    assert [series.render_expansion(k) for k in (0, 2, 5)] == prefixes


def test_polynomial_series_prefix_ends_at_its_degree():
    sphere = orbit_space_poincare(parse("{b=0;(o,g=0,f=0,s=0,t=0)}"))
    assert sphere.render() == "1 + x^2"
    assert [sphere.render_expansion(k) for k in (0, 1, 2, 5)] == [
        "1 + ...", "1 + ...", "1 + x^2", "1 + x^2"]


def test_cohomology_class_render():
    ring = EquivariantCohomology(OrbitInvariants(b=0, eps="o", g=1, f=2, s=1, t=0))
    assert ring.zero().render() == "0"
    D = Q(-2, 3)
    x = ring.from_parts(D=D, A=(Q(-1, 2),), B=(Q(3, 2),), C_se=(-1,), C=(0, 0),
                        p=(Poly((D, Q(-1, 3))), Poly((D, 0, -1))),
                        q=(Poly((0, Q(5, 2))), Poly((0, 0, -1))))
    assert x.render() == str(x) == (
        "-2/3 - 1/2*alpha_1 + 3/2*beta_1 - theta_se_1 - 1/3*u*delta_1"
        " + 5/2*u*theta_1 - u^2*delta_2 - u^2*theta_2")
    nonorientable = EquivariantCohomology(OrbitInvariants(b=0, eps="n", g=2, f=1, s=0, t=0))
    y = nonorientable.from_parts(D=-1, A=(Q(-1, 4), Q(1, 4)), C=(0,),
                                 p=(Poly((-1, -1, Q(1, 2))),), q=(Poly((0, -1)),))
    assert y.render() == "-1 - 1/4*alpha_1 + 1/4*alpha_2 - u*delta_1 + 1/2*u^2*delta_1 - u*theta_1"
