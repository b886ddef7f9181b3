"""Numerical oracle: concrete torus elements as twisted Fourier series.

Symbolic identities produced by the exact engine are checked here against
floating-point computations in a concrete representation.  An element is
a finite series sum_alpha c_alpha U^alpha indexed by integer vectors,
where the ordered monomials multiply by the twisted convolution rule

    U^alpha U^beta = exp(2 pi i sum_{j>k} theta_jk alpha_j beta_k)
                     U^(alpha+beta).

An element stores only ``idx``, an n x d int64 array of distinct mode
indices, and ``val``, their n nonzero complex coefficients.  Products
and linear combinations merge equal modes through one routine,
``_merge``: the modes are linearized in a mixed radix over their
bounding box, brought together by one stable sort of the keys, and each
run of equal keys summed in the order it came (``_sum_by_key``).

The product takes the phases of a block of mode pairs as
exp(2 pi i (A L) B^T), with L the strict lower triangle of theta, and
finds alpha + beta by adding the two sides' linear indices.  A block
holds at most BLOCK_PAIRS pairs; when there are several, each is summed
by key before the merge, so the working arrays stay small.
Materializing all len(a) * len(b) pairs at once raises the peak memory
of an oracle run by several megabytes.

The trace reads off the zero mode, derivations scale mode alpha by
alpha_a, and the adjoint is

    (U^alpha)^* = exp(2 pi i sum_{j>k} theta_jk alpha_j alpha_k) U^(-alpha).

Inverses come from a Neumann series around the zero mode, with an
explicit 1-norm tail bound: its pruned powers are summed by one merge.
Products prune entries far below the working tolerance; the pruning
threshold sits several orders below the certification tolerance, so the
discarded mass never threatens a check.  ``gamma_sum_evaluation``
replays the composition sum with one product per gamma and left degree.

The assignment's table of words is the only place where a word becomes
an element: each word is its prefix times its last letter.  Words,
polynomials, trace expressions and the gamma sides are read from it.  A
symbol at xi is first collapsed into one sum of words and then evaluated
by Horner's rule on the first letter, so words that share a leading
letter share its product, and a word that shares it with no other is
read from the table whole.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType

import numpy as np

from .ncalg import Letter, NCPoly, Record, format_letter
from .symcalc import Symbol, gamma_terms
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
        # strictly lower triangle: only j > k pairs enter phases
        self.lower = np.tril(m, -1)

    @classmethod
    def zero(cls, d: int) -> "ThetaMatrix":
        return cls(np.zeros((d, d)))

    def phase(self, alpha, beta) -> complex:
        """Phase of U^alpha U^beta, term by term: the product kernel's reference."""
        s = sum(self.lower[j, k] * alpha[j] * beta[k] for j in range(self.d) for k in range(j))
        return cmath.exp(2j * cmath.pi * s)


Index = tuple[int, ...]

# mode pairs per block of the product kernel; bounds its working arrays
BLOCK_PAIRS = 4096


def _strides(width: list[int]) -> np.ndarray:
    """Row-major strides: linear order is the lexicographic order of modes."""
    strides = [1] * len(width)
    for k in range(len(width) - 2, -1, -1):
        strides[k] = strides[k + 1] * width[k + 1]
    if strides[0] * width[0] >= 2**62:
        raise OverflowError("modes exceed the int64 linear index")
    return np.array(strides, dtype=np.int64)


def _sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, with the sum of their values.

    One stable sort brings equal keys together in the order they came,
    and ``np.add.reduceat`` sums each run: a sum does not depend on how
    a sort breaks ties, which differs between numpy builds and CPUs.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    start = np.flatnonzero(first)
    return keys[start], np.add.reduceat(vals[order], start)


def _merge(theta: ThetaMatrix, keys, vals, lo: list[int], width: list[int]) -> "FourierElement":
    """The element sum_i vals[i] U^(lo + mode of keys[i]), keys linear in
    the box of these widths: equal keys summed, zero sums dropped."""
    k, v = _sum_by_key(keys, vals)
    keep = v != 0
    idx = np.stack(np.unravel_index(k[keep], width), axis=-1) + lo
    return FourierElement._trusted(theta, idx, v[keep])


def _combine(theta: ThetaMatrix, terms) -> "FourierElement":
    """sum_i c_i el_i over the pairs (el_i, c_i), through the one merge."""
    terms = [(el, c) for el, c in terms if len(el.val)]
    if not terms:
        return FourierElement(theta)
    idx = np.concatenate([el.idx for el, _ in terms])
    lo, hi = idx.min(axis=0).tolist(), idx.max(axis=0).tolist()
    width = [h - l + 1 for l, h in zip(lo, hi)]
    keys = (idx - lo) @ _strides(width)
    return _merge(theta, keys, np.concatenate([el.val * c for el, c in terms]), lo, width)


class FourierElement:
    """Finite twisted Fourier series over a fixed theta: distinct modes
    ``idx`` (n x d, int64) with nonzero coefficients ``val``."""

    __slots__ = ("theta", "idx", "val")

    def __init__(self, theta: ThetaMatrix, coeffs: dict[Index, complex] | None = None):
        modes = [(i, c) for i, c in (coeffs or {}).items() if c != 0]
        self.theta = theta
        # a mode index outside int64 raises OverflowError here
        self.idx = np.array([i for i, _ in modes], dtype=np.int64).reshape(len(modes), theta.d)
        self.val = np.array([c for _, c in modes], dtype=complex)

    @classmethod
    def _trusted(cls, theta: ThetaMatrix, idx: np.ndarray, val: np.ndarray) -> "FourierElement":
        """Wrap distinct int64 modes and their nonzero complex values as is."""
        el = cls.__new__(cls)
        el.theta = theta
        el.idx = idx
        el.val = val
        return el

    @classmethod
    def one(cls, theta: ThetaMatrix) -> "FourierElement":
        return cls(theta, {(0,) * theta.d: 1.0})

    @classmethod
    def monomial(cls, theta: ThetaMatrix, index: Index, c: complex = 1.0) -> "FourierElement":
        return cls(theta, {tuple(index): c})

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {mode index tuple: coefficient} view, built per call."""
        return MappingProxyType(dict(zip(map(tuple, self.idx.tolist()), self.val.tolist())))

    def _masked(self, idx: np.ndarray, val: np.ndarray) -> "FourierElement":
        keep = val != 0
        return FourierElement._trusted(self.theta, idx[keep], val[keep])

    def __add__(self, other: "FourierElement") -> "FourierElement":
        return _combine(self.theta, [(self, 1.0), (other, 1.0)])

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return _combine(self.theta, [(self, 1.0), (other, -1.0)])

    def scale(self, c: complex) -> "FourierElement":
        return self._masked(self.idx, self.val * c)

    def __mul__(self, other: "FourierElement") -> "FourierElement":
        if not len(self.val) or not len(other.val):
            return FourierElement(self.theta)
        a_idx, a_val, b_idx, b_val = self.idx, self.val, other.idx, other.val
        # shared mixed radix: shifting each side by its own minimum puts
        # alpha + beta at la + lb in the box of the sum
        a_lo, a_hi = a_idx.min(axis=0).tolist(), a_idx.max(axis=0).tolist()
        b_lo, b_hi = b_idx.min(axis=0).tolist(), b_idx.max(axis=0).tolist()
        width = [ah - al + bh - bl + 1 for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi)]
        lo = [al + bl for al, bl in zip(a_lo, b_lo)]
        strides = _strides(width)
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
            k, v = (la[r0:r1, None] + lb[None, :]).ravel(), block.ravel()
            if rows < len(la):
                k, v = _sum_by_key(k, v)
            keys.append(k)
            vals.append(v)
        return _merge(self.theta, np.concatenate(keys), np.concatenate(vals), lo, width)

    def adjoint(self) -> "FourierElement":
        s = ((self.idx @ self.theta.lower) * self.idx).sum(axis=1)
        return self._masked(-self.idx, self.val.conj() * np.exp(2j * np.pi * s))

    def derive(self, axis: int) -> "FourierElement":
        return self._masked(self.idx, self.val * self.idx[:, axis - 1])

    def trace(self) -> complex:
        # at most one row is the zero mode
        return complex(self.val[~self.idx.any(axis=1)].sum())

    def norm1(self) -> float:
        return float(np.abs(self.val).sum())

    def prune(self, eps: float) -> "FourierElement":
        """The modes whose coefficient exceeds ``eps`` in modulus, by one mask."""
        keep = np.abs(self.val) > eps
        return FourierElement._trusted(self.theta, self.idx[keep], self.val[keep])

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return (self - self.adjoint()).norm1() <= tol


class NeumannResult(Record):
    __slots__ = ("element", "tail_bound", "terms")


def nc_invert_neumann(x: FourierElement, tol: float = 1e-12) -> NeumannResult:
    """Inverse via the Neumann series around the zero mode.

    Writing x = lam (1 + u) with lam the zero mode, the series
    sum (-u)^j / lam converges when ||u||_1 < 1; enough terms are taken
    for the 1-norm tail r^(K+1) / ((1 - r) |lam|) to drop below tol.
    Each power (-u)^j is the previous one times -u, pruned, and the
    powers j = 0..K are summed by one merge: K products in all.
    """
    lam = x.trace()
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
    minus_u = u.scale(-1.0)
    powers = [FourierElement.one(x.theta)]
    for _ in range(k):
        powers.append((powers[-1] * minus_u).prune(prune_eps))
    s = _combine(x.theta, [(power, 1.0 / lam) for power in powers])
    return NeumannResult(s, tail / abs(lam), k + 1)


class Assignment:
    """Concrete values for the letters, with one table from words to elements.

    ``atoms`` maps "h", "T1".."Td" and "X" to elements, the names
    ``format_letter`` and the JSON form use.  The empty word is the
    identity, h^-1 is the Neumann inverse of h at the assignment
    tolerance, and any other letter is its atom with mode alpha scaled by
    prod_a alpha_a^(k_a).  A longer word is its prefix times its last
    letter, both read from the table, and pruned.  The table lives as
    long as the assignment.  It is the only place where a word becomes an
    element: polynomials, trace expressions and symbols read their words
    from it, a symbol sharing the leading letters of its words
    (``evaluate_symbol``).
    """

    def __init__(self, theta: ThetaMatrix, atoms: dict[str, FourierElement], tol: float = 1e-10):
        # below float64 epsilon |h h^-1 - 1| cannot meet the certified tail
        # and the Neumann series only grows; at tol <= 0 it never stops
        eps = np.finfo(float).eps
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not eps <= tol < math.inf:
            raise ValueError(f"tolerance must be a finite number >= {eps:.3e}, not {tol!r}")
        self.theta = theta
        self.d = theta.d
        self.atoms = atoms
        self.tol = tol
        self._words: dict[tuple[Letter, ...], FourierElement] = {}
        self._h_inverse: NeumannResult | None = None

    def h_inverse(self) -> NeumannResult:
        if self._h_inverse is None:
            self._h_inverse = nc_invert_neumann(self.atoms["h"], self.tol)
        return self._h_inverse

    def evaluate_word(self, word: tuple[Letter, ...]) -> FourierElement:
        word = tuple(word)
        hit = self._words.get(word)
        if hit is not None:
            return hit
        if len(word) > 1:
            # reuse the longest cached prefix; expressions share many
            out = self.evaluate_word(word[:-1]) * self.evaluate_word(word[-1:])
            out = out.prune(self.tol * PRUNE_FACTOR)
        elif not word:
            out = FourierElement.one(self.theta)
        elif word[0].kind == "Hinv":
            out = self.h_inverse().element
        else:
            let = word[0]
            out = self.atoms[format_letter(Letter(let.kind, (0,) * self.d, let.axis))]
            if let.order:
                # in floats: an int64 power of a large mode index wraps
                factor = np.prod(out.idx.astype(float) ** let.deriv, axis=1)
                out = out._masked(out.idx, out.val * factor)
        self._words[word] = out
        return out

    def _table_sum(self, sums: dict) -> FourierElement:
        """sum_w c_w E(w) over {word: c_w}, every word read from the table."""
        return _combine(self.theta, [(self.evaluate_word(w), c) for w, c in sums.items()])

    def evaluate_poly(self, p: NCPoly) -> FourierElement:
        # n / den rounds the exact quotient once, as float(Fraction) does
        return self._table_sum({word: n / p.den for word, n in p.num.items()})

    def evaluate_trace_expression(self, e: TraceExpression) -> complex:
        total = 0.0 + 0.0j
        for tw, sc in e.terms.items():
            total += float(sc) * self.evaluate_word(tw.word).trace()
        return total

    def evaluate_symbol(self, s: Symbol, xi) -> FourierElement:
        """The symbol at xi.  Its words collapse into one sum
        sum_w (sum_m m(xi) c_mw) w, whose zero sums are dropped, and that
        sum is evaluated by Horner's rule on the first letter,

            E(sum_w c_w w) = c_() 1 + sum_l E(l) E(Q_l),

        with Q_l the rests of the words that begin with l.  Words that
        share a leading letter share its product; a word that shares it
        with no other is read from the table whole.
        """
        return self._evaluate_word_sum(_word_sums(s, xi))

    def _evaluate_word_sum(self, sums: dict) -> FourierElement:
        """E(sum_w c_w w), grouping the words by their first letter.  A
        group of one word, the empty word or a lone letter included, is
        that word from the table; a larger group is one Horner step, its
        letter times the sum of its rests, pruned as the table prunes."""
        groups: dict[tuple[Letter, ...], dict] = {}
        for word, c in sums.items():
            groups.setdefault(word[:1], {})[word] = c
        terms = []
        for head, words in groups.items():
            if len(words) == 1:
                ((word, c),) = words.items()
                terms.append((self.evaluate_word(word), c))
            else:
                rests = {w[1:]: c for w, c in words.items()}
                out = self.evaluate_word(head) * self._evaluate_word_sum(rests)
                terms.append((out.prune(self.tol * PRUNE_FACTOR), 1.0))
        return _combine(self.theta, terms)


def _word_sums(s: Symbol, xi) -> dict:
    """{w: sum_m m(xi) c_mw} over the words w of s, m(xi) taken once per
    monomial m; words whose sum is 0 are dropped."""
    sums: dict[tuple[Letter, ...], float] = {}
    for mono, coef in s.terms.items():
        m, den = mono.eval(xi), coef.den
        for word, n in coef.num.items():
            sums[word] = sums.get(word, 0.0) + m * (n / den)
    return {w: c for w, c in sums.items() if c != 0}


def gamma_sum_evaluation(
    asg: Assignment, p: Symbol, q: Symbol, min_degree: int, xi
) -> FourierElement:
    """Composition evaluated numerically, bypassing symbol arithmetic.

    Runs the same finite gamma sum as the symbolic composition, but each
    side is evaluated to concrete elements first and the sides are
    combined by twisted convolution; only monomial pairs at or above
    min_degree contribute, mirroring the symbolic truncation.  For each
    gamma, derived from scratch by ``symcalc.gamma_terms``, the
    monomials of d_xi^gamma P of degree a collapse at xi into
    one word sum, read from the word table as one element L_a, and those
    of delta^gamma Q of degree >= min_degree - a into one element R_a;
    the gamma sum adds L_a R_a / gamma!: one product per gamma and left
    degree, besides the table's.  Only monomials with a partner at or
    above the cut are evaluated.  Agreement with the evaluated symbolic
    product cross-checks the polynomial multiplication against the
    convolution it represents.
    """
    products = []
    gamma_max = p.max_degree() + q.max_degree() - min_degree
    for inv, dp, dq in gamma_terms(p, q, range(gamma_max + 1)):
        if not dp.terms or not dq.terms:
            continue
        reach = min_degree - dq.max_degree()
        for a in sorted({m.degree for m in dp.terms if m.degree >= reach}):
            left = asg._table_sum(_word_sums(dp.homogeneous_part(a), xi))
            right = asg._table_sum(_word_sums(dq.truncate_below(min_degree - a), xi))
            products.append((left * right, float(inv)))
    return _combine(asg.theta, products)
