"""Seeded generators for probe symbols and oracle assignments.

Everything here funnels through one numpy Generator, so a single seed
pins down every randomized check end to end.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fourier_oracle import Assignment, FourierElement, ThetaMatrix, _combine
from .ncalg import Letter, NCPoly
from .symcalc import Symbol, XiMonomial, multi_indices

THETA_MODES = ("zero", "rational", "irrational")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_letter(d: int, rng: np.random.Generator, max_order: int = 1) -> Letter:
    kind = ["H", "Hinv", "T", "X"][rng.integers(0, 4)]
    if kind == "Hinv":
        return Letter("Hinv", (0,) * d)
    order = int(rng.integers(0, max_order + 1))
    deriv = [0] * d
    for _ in range(order):
        deriv[rng.integers(0, d)] += 1
    axis = int(rng.integers(1, d + 1)) if kind == "T" else None
    return Letter(kind, tuple(deriv), axis)


def random_poly(
    d: int,
    rng,
    terms: int = 2,
    max_len: int = 2,
    max_order: int = 1,
) -> NCPoly:
    rng = _rng(rng)
    out = NCPoly.zero(d)
    for _ in range(terms):
        length = int(rng.integers(1, max_len + 1))
        word = tuple(random_letter(d, rng, max_order) for _ in range(length))
        q = Fraction(int(rng.integers(-3, 4)) or 1, int(rng.integers(1, 4)))
        out = out + NCPoly.from_word(d, word, q)
    return out


def random_symbol(
    d: int,
    rng,
    degree: int,
    terms: int = 2,
    max_len: int = 2,
    max_order: int = 1,
) -> Symbol:
    """Symbol homogeneous of the given degree with random coefficients."""
    rng = _rng(rng)
    total = Symbol.zero(d)
    for _ in range(terms):
        # |alpha| + 2m = degree with m chosen to keep alpha small
        a = int(rng.integers(0, 3))
        if (degree - a) % 2:
            a += 1
        m = (degree - a) // 2
        choices = multi_indices(d, a)
        alpha = choices[rng.integers(0, len(choices))]
        coef = random_poly(d, rng, terms=1, max_len=max_len, max_order=max_order)
        total = total + Symbol(d, {XiMonomial(alpha, m): coef})
    return total


def random_probe_pair(d: int, rng) -> tuple[Symbol, Symbol]:
    """Two symbols whose products reach degree -d for residue probes."""
    rng = _rng(rng)
    p_deg = int(rng.integers(0, 3))
    q_deg = -d - p_deg
    p = random_symbol(d, rng, p_deg)
    q = random_symbol(d, rng, q_deg)
    return p, q


def random_theta(d: int, rng, mode: str = "irrational") -> ThetaMatrix:
    rng = _rng(rng)
    if mode not in THETA_MODES:
        raise ValueError(f"theta mode must be one of {THETA_MODES}")
    if mode == "zero":
        return ThetaMatrix.zero(d)
    if mode == "rational":
        m = rng.integers(-3, 4, size=(d, d)) / 8.0
    else:
        m = rng.uniform(-0.5, 0.5, size=(d, d))
    return ThetaMatrix(np.tril(m, -1) - np.tril(m, -1).T)


def random_self_adjoint(
    theta: ThetaMatrix,
    rng,
    modes: int = 2,
    scale: float = 0.05,
    radius: int = 3,
    offset: float = 0.0,
) -> FourierElement:
    """offset * 1 + (m + m*) with small random modes within the radius."""
    rng = _rng(rng)
    drawn = []
    for _ in range(modes):
        idx = tuple(int(v) for v in rng.integers(-radius, radius + 1, size=theta.d))
        if not any(idx):
            continue
        # bounded draws keep the off-mode mass under the Neumann radius
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        drawn.append((FourierElement.monomial(theta, idx, c), 1.0))
    el = _combine(theta, drawn)
    parts = [(el, 1.0), (el.adjoint(), 1.0)]
    if offset:
        parts.append((FourierElement.one(theta), offset))
    return _combine(theta, parts)


def random_assignment(
    d: int,
    rng,
    theta_mode: str = "irrational",
    eps: float = 0.05,
    radius: int = 3,
    tol: float = 1e-10,
) -> Assignment:
    """Concrete letter values: h stays Neumann-invertible by construction."""
    rng = _rng(rng)
    if not 0 < eps <= 0.1:
        raise ValueError("eps must lie in (0, 0.1] to keep h invertible")
    theta = random_theta(d, rng, theta_mode)
    atoms = {"h": random_self_adjoint(theta, rng, 2, eps / 2, radius, offset=1.0)}
    for axis in range(1, d + 1):
        atoms[f"T{axis}"] = random_self_adjoint(theta, rng, 2, eps, radius)
    atoms["X"] = random_self_adjoint(theta, rng, 2, eps, radius)
    return Assignment(theta, atoms, tol=tol)
