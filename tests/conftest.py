"""Fixtures shared by the test modules."""

import math

import pytest

from planarcasimir import quadrature


@pytest.fixture
def replace_the_core(monkeypatch):
    """``replace(make=None, patch=monkeypatch)``: replace
    ``quadrature._double``, the one door to the double integral of every
    observable (``double_semi_infinite`` wraps it), by ``make(_double)``
    through ``patch``. Without ``make`` no rule runs: each records its
    (integrand, columns) in the list ``replace`` returns and gives zeros,
    converged in each group: each pair of (G, 2), or each column."""
    def replace(make=None, patch=monkeypatch):
        calls = []

        def record(integrand, *args, columns=(), **kwargs):
            calls.append((integrand, columns))
            zeros = [0.0] * math.prod(columns)
            return zeros, zeros, 0, [True] * (columns[0] if columns else 1)

        patch.setattr(quadrature, "_double",
                      make(quadrature._double) if make else record)
        return calls

    return replace
