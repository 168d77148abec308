"""The psi quadrature computed whole on every call: the test oracle of the
contour table.

``polyaprofile.limits`` builds the t-independent part of psi's integrand
once per (c, arc radius, nodes) and sums it per t (``_psi_contour``);
``psi_quadrature`` here recomputes every term from the contour nodes on
each call, the way ``_psi_quadrature`` did before the table.  Both must
give the same bits, so ``test_limits.py`` compares them with float.hex.
"""

from __future__ import annotations

import math

import numpy as np

from polyaprofile.limits import _RAY_LENGTH, _unit_rule


def psi_quadrature(t, amplitude, kappa, b, rho, nodes, arc_radius):
    """(value, min |den|) of the quadrature, like ``limits._psi_quadrature``."""
    c = 0.5 * kappa * b * math.sqrt(rho)
    lam = amplitude / (b * math.sqrt(rho))
    S, w = _RAY_LENGTH, arc_radius
    x, wt = _unit_rule(nodes)
    # the arc: s = w e^{i theta} clockwise through -w, theta: -pi/2 -> -3pi/2
    s_arc = w * np.exp(1j * (-0.5 * np.pi - np.pi * x))
    pieces = (  # (s, ds/dx) of each piece, in contour order
        ((S - S * x) - 1j * w, -S),  # incoming ray below the axis
        (s_arc, 1j * s_arc * (-np.pi)),
        (S * x + 1j * w, S),  # outgoing ray above the axis
    )
    min_den = math.inf
    total = 0.0 + 0.0j
    for s, ds in pieces:
        r = np.sqrt(-s)
        q = c * r
        den = r * np.exp(q) - 1j * t * lam * np.sinh(q)
        total += np.sum(wt * (r * np.exp(-q - s) / den) * ds)
        min_den = min(min_den, np.abs(den).min())
    prefactor = amplitude * t / (b * math.sqrt(rho * math.pi))
    return 1.0 + prefactor * total, min_den
