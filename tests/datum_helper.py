"""A datum from keyword fields, every field defaulted, and the order a datum
holds its pairs in: the shared builders of the test modules."""

from numbers import Integral

from orbitinv import OrbitInvariants


def datum(b=0, eps="o", g=0, f=0, s=0, t=0, pairs=(), graph=()):
    return OrbitInvariants(b=b, eps=eps, g=g, f=f, s=s, t=t, pairs=pairs, graph=graph)


def held_order(pairs) -> list[int]:
    """The positions of the given ``(m, n)`` pairs in the order a datum
    holds them: sorted with integral entries as ``int``, or as given when
    two entries cannot be compared.  Only ``(m, n)`` is compared, so pairs
    that tie keep their given order whatever else a drawn pair carries."""
    keys = [tuple(int(v) if isinstance(v, Integral) and not isinstance(v, bool) else v
                  for v in pair[:2]) for pair in pairs]
    try:
        return sorted(range(len(keys)), key=keys.__getitem__)
    except TypeError:
        return list(range(len(keys)))
