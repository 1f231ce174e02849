"""A datum from keyword fields, every field defaulted: the shared builder of
the test modules."""

from orbitinv import OrbitInvariants


def datum(b=0, eps="o", g=0, f=0, s=0, t=0, pairs=(), graph=()):
    return OrbitInvariants(b=b, eps=eps, g=g, f=f, s=s, t=t, pairs=pairs, graph=graph)
