"""Numerical oracle: concrete torus elements as twisted Fourier series.

Symbolic identities produced by the exact engine are checked here against
floating-point computations in a concrete representation.  An element is
a finite series sum_alpha c_alpha U^alpha indexed by integer vectors,
where the ordered monomials multiply by the twisted convolution rule

    U^alpha U^beta = exp(2 pi i sum_{j>k} theta_jk alpha_j beta_k)
                     U^(alpha+beta).

The product is one numpy kernel over all mode pairs: the phases of a
block of pairs are exp(2 pi i (A L) B^T) with L the strict lower
triangle of theta, and alpha + beta is found by adding the two sides'
indices linearized in one shared mixed radix, so that equal output
modes are summed by a unique/bincount pass.  Pairs are processed in
blocks of at most BLOCK_PAIRS and the blocks merged by one more such
pass, so the working arrays stay small whatever the operand sizes;
materializing every pair at once holds several arrays of
len(a) * len(b) entries, which raises the peak memory of an oracle run
by several megabytes.

The trace reads off the zero mode, derivations scale mode alpha by
alpha_a, and the adjoint is

    (U^alpha)^* = exp(2 pi i sum_{j>k} theta_jk alpha_j alpha_k) U^(-alpha).

Inverses come from a Neumann series around the zero mode, with an
explicit 1-norm tail bound.  Products prune entries far below the
working tolerance; the pruning threshold sits several orders below the
certification tolerance, so the discarded mass never threatens a check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .ncalg import Letter, NCPoly, Record
from .symcalc import Symbol
from .trace import TraceExpression

# entries this far below a certification tolerance cannot add up to harm it
PRUNE_FACTOR = 1e-4


class ThetaMatrix:
    """Deformation matrix, antisymmetric modulo 1."""

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("theta must be square")
        sym = m + m.T
        if not np.allclose(sym, np.round(sym), atol=1e-9):
            raise ValueError("theta must be antisymmetric modulo 1")
        self.mat = m
        self.d = m.shape[0]
        # strictly lower triangle: only j > k pairs enter phases.  The
        # product kernel takes it as a matrix; the scalar phase, called
        # once per mode by the adjoint, reads it as plain tuples
        self.lower = np.tril(m, -1)
        self._lower = tuple(tuple(m[j, :j]) for j in range(self.d))

    @classmethod
    def zero(cls, d: int) -> "ThetaMatrix":
        return cls(np.zeros((d, d)))

    def phase(self, alpha, beta) -> complex:
        s = 0.0
        for j in range(1, self.d):
            aj = alpha[j]
            if aj:
                row = self._lower[j]
                s += aj * sum(row[k] * beta[k] for k in range(j) if beta[k])
        return cmath.exp(2j * cmath.pi * s)


Index = tuple[int, ...]

# mode pairs per block of the product kernel; bounds its working arrays
BLOCK_PAIRS = 4096


def _as_arrays(coeffs: dict[Index, complex]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array(list(coeffs), dtype=np.int64)
    val = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    return idx, val


def _sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, with the sum of their values."""
    uniq, inv = np.unique(keys, return_inverse=True)
    inv = inv.ravel()
    re = np.bincount(inv, weights=vals.real, minlength=len(uniq))
    im = np.bincount(inv, weights=vals.imag, minlength=len(uniq))
    return uniq, re + 1j * im


def _accumulate(out: dict[Index, complex], coeffs: dict[Index, complex], c: complex = 1.0):
    """out += c * coeffs in place, dropping entries that cancel to zero."""
    get = out.get
    for idx, v in coeffs.items():
        total = get(idx, 0.0) + v * c
        if total:
            out[idx] = total
        else:
            out.pop(idx, None)


class FourierElement:
    """Finite twisted Fourier series over a fixed theta."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta: ThetaMatrix, coeffs: dict[Index, complex] | None = None):
        self.theta = theta
        self.coeffs: dict[Index, complex] = {}
        if coeffs:
            for idx, c in coeffs.items():
                if c != 0:
                    self.coeffs[tuple(idx)] = complex(c)

    @classmethod
    def _trusted(cls, theta: ThetaMatrix, coeffs: dict[Index, complex]) -> "FourierElement":
        """Wrap a dict of tuple indices and nonzero complex values as is."""
        el = cls.__new__(cls)
        el.theta = theta
        el.coeffs = coeffs
        return el

    @classmethod
    def one(cls, theta: ThetaMatrix) -> "FourierElement":
        return cls(theta, {(0,) * theta.d: 1.0})

    @classmethod
    def monomial(cls, theta: ThetaMatrix, index: Index, c: complex = 1.0) -> "FourierElement":
        return cls(theta, {tuple(index): c})

    def __add__(self, other: "FourierElement") -> "FourierElement":
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return FourierElement._trusted(self.theta, out)

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "FourierElement":
        return FourierElement._trusted(
            self.theta, {i: w for i, v in self.coeffs.items() if (w := v * c)}
        )

    def __mul__(self, other: "FourierElement") -> "FourierElement":
        if not self.coeffs or not other.coeffs:
            return FourierElement._trusted(self.theta, {})
        a_idx, a_val = _as_arrays(self.coeffs)
        b_idx, b_val = _as_arrays(other.coeffs)
        # shared mixed radix: shifting each side by its own minimum puts
        # alpha + beta at la + lb, and row-major strides make linear order
        # the lexicographic order of the index tuples
        a_lo, b_lo = a_idx.min(axis=0), b_idx.min(axis=0)
        width = a_idx.max(axis=0) - a_lo + b_idx.max(axis=0) - b_lo + 1
        strides = [1] * len(width)
        for k in range(len(width) - 2, -1, -1):
            strides[k] = strides[k + 1] * int(width[k + 1])
        if strides[0] * int(width[0]) >= 2**62:
            raise OverflowError("product modes exceed the int64 linear index")
        strides = np.array(strides, dtype=np.int64)
        la = (a_idx - a_lo) @ strides
        lb = (b_idx - b_lo) @ strides
        a_lower = a_idx @ self.theta.lower
        rows = max(1, BLOCK_PAIRS // len(lb))
        keys, vals = [], []
        for r0 in range(0, len(la), rows):
            r1 = r0 + rows
            block = a_val[r0:r1, None] * b_val[None, :]
            s = a_lower[r0:r1] @ b_idx.T
            if s.any():
                block *= np.exp(2j * np.pi * s)
            k, v = _sum_by_key((la[r0:r1, None] + lb[None, :]).ravel(), block.ravel())
            keys.append(k)
            vals.append(v)
        if len(keys) == 1:
            k, v = keys[0], vals[0]
        else:
            k, v = _sum_by_key(np.concatenate(keys), np.concatenate(vals))
        keep = v != 0
        k, v = k[keep], v[keep]
        idx = (k[:, None] // strides) % width + (a_lo + b_lo)
        return FourierElement._trusted(
            self.theta, dict(zip(map(tuple, idx.tolist()), v.tolist()))
        )

    def adjoint(self) -> "FourierElement":
        out: dict[Index, complex] = {}
        phase = self.theta.phase
        for a, c in self.coeffs.items():
            neg = tuple(-x for x in a)
            out[neg] = out.get(neg, 0.0) + c.conjugate() * phase(a, a)
        return FourierElement(self.theta, out)

    def derive(self, axis: int) -> "FourierElement":
        return FourierElement._trusted(
            self.theta,
            {a: c * a[axis - 1] for a, c in self.coeffs.items() if a[axis - 1]},
        )

    def trace(self) -> complex:
        return self.coeffs.get((0,) * self.theta.d, 0.0)

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def prune(self, eps: float) -> "FourierElement":
        return FourierElement._trusted(
            self.theta, {a: c for a, c in self.coeffs.items() if abs(c) > eps}
        )

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return (self - self.adjoint()).norm1() <= tol


class NeumannResult(Record):
    __slots__ = ("element", "tail_bound", "terms")

    def __init__(self, element: FourierElement, tail_bound: float, terms: int):
        self.element = element
        self.tail_bound = tail_bound
        self.terms = terms


def nc_invert_neumann(x: FourierElement, tol: float = 1e-12) -> NeumannResult:
    """Inverse via the Neumann series around the zero mode.

    Writing x = lam (1 + u) with lam the zero mode, the series
    sum (-u)^k / lam converges when ||u||_1 < 1; enough terms are taken
    for the 1-norm tail r^(K+1) / ((1 - r) |lam|) to drop below tol.
    """
    d = x.theta.d
    lam = x.coeffs.get((0,) * d, 0.0)
    if lam == 0:
        raise ValueError("zero mode vanishes; Neumann series does not apply")
    u = x.scale(1.0 / lam) - FourierElement.one(x.theta)
    r = u.norm1()
    if r >= 1.0:
        raise ValueError(f"series does not converge: off-mode mass {r:.3f} >= 1")
    k = 0
    tail = r / (1.0 - r)
    while tail > tol * abs(lam) and r > 0:
        k += 1
        tail *= r
    prune_eps = tol * PRUNE_FACTOR
    # Horner form: s = 1 - u (1 - u (... ))
    s = FourierElement.one(x.theta)
    for _ in range(k):
        s = (FourierElement.one(x.theta) - (u * s)).prune(prune_eps)
    return NeumannResult(s.scale(1.0 / lam), tail / abs(lam), k + 1)


class Assignment:
    """Concrete values for the letters, with an evaluation cache.

    ``atoms`` maps "h", "t1".."td", "x" to elements; the inverse of h is
    produced on demand by the Neumann series at the assignment tolerance.
    """

    def __init__(self, theta: ThetaMatrix, atoms: dict[str, FourierElement], tol: float = 1e-10):
        # a tolerance <= 0 would never stop the Neumann series
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be a finite number > 0, not {tol!r}")
        self.theta = theta
        self.d = theta.d
        self.atoms = atoms
        self.tol = tol
        self._letters: dict[Letter, FourierElement] = {}
        self._words: dict[tuple[Letter, ...], FourierElement] = {}
        self._h_inverse: NeumannResult | None = None

    def h_inverse(self) -> NeumannResult:
        if self._h_inverse is None:
            self._h_inverse = nc_invert_neumann(self.atoms["h"], self.tol)
        return self._h_inverse

    def _letter(self, let: Letter) -> FourierElement:
        hit = self._letters.get(let)
        if hit is not None:
            return hit
        if let.kind == "H":
            el = self.atoms["h"]
        elif let.kind == "Hinv":
            el = self.h_inverse().element
        elif let.kind == "T":
            el = self.atoms[f"t{let.axis}"]
        else:
            el = self.atoms["x"]
        for axis, reps in enumerate(let.deriv, start=1):
            for _ in range(reps):
                el = el.derive(axis)
        self._letters[let] = el
        return el

    def evaluate_word(self, word: tuple[Letter, ...]) -> FourierElement:
        word = tuple(word)
        hit = self._words.get(word)
        if hit is not None:
            return hit
        eps = self.tol * PRUNE_FACTOR
        if word:
            # reuse the longest cached prefix; expressions share many
            out = self.evaluate_word(word[:-1]) * self._letter(word[-1])
            out = out.prune(eps)
        else:
            out = FourierElement.one(self.theta)
        self._words[word] = out
        return out

    def evaluate_poly(self, p: NCPoly) -> FourierElement:
        out: dict[Index, complex] = {}
        for word, sc in p.terms.items():
            _accumulate(out, self.evaluate_word(word).coeffs, float(sc))
        return FourierElement._trusted(self.theta, out)

    def evaluate_trace_expression(self, e: TraceExpression) -> complex:
        total = 0.0 + 0.0j
        for tw, sc in e.terms.items():
            total += float(sc) * self.evaluate_word(tw.word).trace()
        return total

    def evaluate_symbol(self, s: Symbol, xi) -> FourierElement:
        out: dict[Index, complex] = {}
        for mono, coef in s.terms.items():
            _accumulate(out, self.evaluate_poly(coef).coeffs, mono.eval(xi))
        return FourierElement._trusted(self.theta, out)


def gamma_sum_evaluation(
    asg: Assignment, p: Symbol, q: Symbol, min_degree: int, xi
) -> FourierElement:
    """Composition evaluated numerically, bypassing symbol arithmetic.

    Runs the same finite gamma sum as the symbolic composition, but each
    piece is evaluated to a concrete element first and the pieces are
    combined by twisted convolution; only monomial pairs at or above
    min_degree contribute, mirroring the symbolic truncation.  Agreement
    with the evaluated symbolic product cross-checks the polynomial
    multiplication against the convolution it represents.
    """
    from math import factorial

    from .symcalc import multi_indices

    d = p.d
    total: dict = {}
    gamma_max = p.max_degree() + q.max_degree() - min_degree
    for order in range(gamma_max + 1):
        for gamma in multi_indices(d, order):
            weight = 1.0
            dp, dq = p, q
            for axis, reps in enumerate(gamma, start=1):
                weight /= factorial(reps)
                for _ in range(reps):
                    dp = dp.partial_xi(axis)
                    dq = dq.derive(axis)
            # each coefficient is evaluated once, not once per pair
            left: dict = {}
            right: dict = {}
            for mono1, coef1 in dp.terms.items():
                for mono2, coef2 in dq.terms.items():
                    if mono1.degree + mono2.degree < min_degree:
                        continue
                    scal = weight * mono1.eval(xi) * mono2.eval(xi)
                    if mono1 not in left:
                        left[mono1] = asg.evaluate_poly(coef1)
                    if mono2 not in right:
                        right[mono2] = asg.evaluate_poly(coef2)
                    piece = (left[mono1] * right[mono2]).scale(scal)
                    _accumulate(total, piece.coeffs)
    return FourierElement._trusted(asg.theta, total)
