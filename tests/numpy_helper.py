"""numpy for the tests that use it.  numpy is a test-only dependency that an
interpreter may lack, so no test module imports it at its top: a test body
calls ``pytest.importorskip("numpy")``, and a parameter list or a hypothesis
strategy, which is built while its module is collected, takes its numpy
values from here."""

import pytest

try:
    import numpy
except ImportError:
    numpy = None


def numpy_case(build, width=1):
    """A parametrize case: ``build(numpy)``, one value or a tuple of ``width``
    values, or, without numpy, a skipped case of that width."""
    if numpy is None:
        return pytest.param(*[None] * width, marks=pytest.mark.skip(reason="numpy is not installed"))
    return pytest.param(*build(numpy)) if width > 1 else build(numpy)
