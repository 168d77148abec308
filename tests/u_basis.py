"""The u basis of marked series: the test oracle of the whole laws.

In the u basis a mark exponent counts marked nodes: a series in x and the
marks u, v is a map from (a, b) to the series in x that multiplies u^a v^b,
each capped at the order N.  ``polyaprofile`` reads laws from values at
roots of unity (``PointSeries``); ``u_basis_route`` runs the same builders
of ``polyaprofile.profile`` in the u basis instead, over the exact ring (the
big-integer route) or a residue ring, so the two compute each law by
different algorithms.  Its own products, exp and Polya exponent are held to
their definitions in ``test_series.py``; criterion 3 holds the laws of
``polyaprofile`` to the exhaustive enumeration.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest

from polyaprofile import profile
from polyaprofile.enumeration import tree_series
from polyaprofile.series import EXACT, MarkedSeries, ResidueRing, TruncatedSeries

_UNMARKED = (0, 0)


class UBasisSeries(MarkedSeries):
    """MarkedSeries whose exponents count marked nodes; the Euler-operator
    exp, the products and the sums are the eps basis' own."""

    def mark(self, power=1, v=0):
        """The monomial u_v**power (power >= 0), constant in x."""
        one = TruncatedSeries.one(self.order, self.ring)
        e = (power, 0) if v == 0 else (0, power)
        return self.copy_with({e: one} if self._fits(e) else {})

    def _image(self, e, i):
        e2 = (e[0] * i, e[1] * i)
        return [(e2, 1)] if self._fits(e2) else []

    def polya_exponent(self):
        """sum_{i>=1} a(x**i, u**i) / i: u**e has one image per i, so each i
        is a sum of its own, but u**0 is its own image under every i."""
        self._check_constant_term("polya_exponent")
        N, ring = self.order, self.ring
        weights = _inverse_weights(ring, N)
        acc = {}
        for e, s in self.terms.items():
            top = N // s.valuation()
            spans = [(1, top)] if e == _UNMARKED else [(i, i) for i in range(1, top + 1)]
            for lo, hi in spans:
                e2 = (e[0] * lo, e[1] * lo)
                if self._fits(e2):
                    part = ring.power_sum(s.coeffs, weights, lo, hi)
                    acc[e2] = ring.add(acc[e2], part) if e2 in acc else part
        like = next(iter(self.terms.values()), None)
        return self.copy_with({e: like.copy_with(out) for e, out in acc.items()})


@lru_cache(maxsize=None)
def _inverse_weights(ring, N):
    return ring.weights([0] + [Fraction(1, i) for i in range(1, N + 1)])


@lru_cache(maxsize=None)
def _residue_ring(N):
    """The ring of the u basis at order N: [x^n u^a v^b] <= y_n <= y_N."""
    return ResidueRing(N, tree_series(N)[N])


def generic_levels(base, k_max):
    """Every level by the generic exp, which takes the scalar exp of the
    unmarked exponent: x exp(sum_i y_k(x^i, u^i) / i)."""
    cur = base
    yield 0, cur
    for k in range(1, k_max + 1):
        cur = cur.polya_exponent().exp().shift(1)
        yield k, cur


@contextmanager
def u_basis_route(exact=False):
    """Within the block, every full-mode builder of ``polyaprofile.profile``
    builds its series in the u basis, over EXACT or a residue ring."""
    original = profile._marked_tree_series

    def lifted(N, mode, order, marks, degrees, *levels, signed=False):
        checked = original(N, mode, order, marks, degrees, *levels, signed=signed)
        if mode != "full":
            return checked
        ring = EXACT if exact else _residue_ring(N)
        return UBasisSeries.lift(TruncatedSeries(tree_series(N).coeffs, N, ring),
                                 (N, N if marks == 2 else 0))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(profile, "_marked_tree_series", lifted)
        m.setattr(profile, "_marked_levels", generic_levels)
        yield
