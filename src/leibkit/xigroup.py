"""Linear xi-groups: unit groups of matrix-realized graded algebras.

A xi-group is a group with an idempotent endomorphism xi.  On a unital
special graded algebra the units are the elements whose even component is
invertible, and the even projection is such a xi; the special grading proves
this (see ``xi`` and ``invert_unit``), and it is verified exactly whenever a
``MatrixRealization`` is built, so the laws need no sampling.  Groups here
are restricted to product form ``{x0 + x1 : p(x0) = 0, x1 in V1}`` with
``p`` drawn from named polynomial constraint families.  Each family has a
rational Jacobian at the unit, so the tangent space (kernel of that
Jacobian) + V1 is computed exactly, and it is certified Hu-Liu by one exact
check: closure under the two derived brackets of the ambient graded algebra.

Exact data (structure tensors, embeddings, tangent bases) is rational;
sampling, conjugation checks, and curve checks run in float64 with
residuals scaled by operator norms.  The sampled checks bound every norm
from its Gram matrix first (``MatrixRealization.norm_bounds``) and solve it
exactly (``op_norm``) only for the samples whose bounds leave the worst
residual or a verdict open, so their reports are those of solving every
sample.  A sampled check holds all its samples at once, so its size is
bounded by ``MAX_SAMPLE_FLOATS``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar

import numpy as np

from ._tables import operators
from .algebras import (
    BimoduleError,
    GradedAlgebra,
    _square_zero_extension,
    make_trivial_extension,
    matrix_algebra,
)
from .derive import derive_huliu
from .huliu import is_huliu_subalgebra
from .linalg import (Matrix, Subspace, Vec, _apply, _pairs, _row, full_space, kernel, solve, vec,
                     zeros)
from .report import Report, fail, ok

DEFAULT_TOLERANCE = 1e-9
_SAMPLE_RETRIES = 100
_UNIT_RESIDUAL = 1e-6  # scaled inverse residual above which a float point is no unit

# Largest accepted samples x (dim^2 + 16 dim) of a sampled check, which holds
# all its samples at once: the products and norms grow with dim^2, the even
# block, residuals and scales with dim.  Traced peaks of both checks at the
# largest admitted count (tracemalloc, numpy 2.4) were 44.4 MB at dim 1 (5.3
# bytes a unit), 35.9 MB at dim 2 (4.3) and, at dim 18 (13706 samples of the
# Mat(3) extension), 29.7 MB on its 6x6 block realization (3.5) and 47.1 MB on
# its 18x18 regular one (5.6).
MAX_SAMPLE_FLOATS = 2 ** 23
# Matrices per Gram block of ``MatrixRealization._grams``.
_GRAM_BLOCK = 1024


class NotAUnitError(ValueError):
    """The even component is singular, i.e. the element is not a unit."""


class SamplingError(RuntimeError):
    """The constraint sampler failed to produce a point."""


class MatrixRealization:
    """A verified embedding of a unital graded algebra into n x n matrices.

    The embedding must be linear, injective, multiplicative on basis pairs
    and send the unit to the identity matrix; all of this is checked exactly
    at construction.  Multiplicativity is checked as associativity of the
    square-zero extension by Q^n with the matrices acting from the left.
    Odd elements then realize as square-zero matrices, because the grading
    is special.
    """

    def __init__(self, graded: GradedAlgebra, embed: list[Matrix]):
        graded.validate()
        if graded.algebra.unit is None:
            raise ValueError("realization requires a unital algebra")
        self.graded = graded
        self.embed = tuple(embed)
        if len(self.embed) != graded.dim:
            raise ValueError("need one matrix per basis element")
        self.n = self.embed[0].rows
        if any(m.rows != self.n or m.cols != self.n for m in self.embed):
            raise ValueError("embedding matrices must be square of equal size")
        # each matrix as one sparse row of its n^2 coordinates, row-major
        n, dim = self.n, self.dim
        flat = tuple(tuple((a * n + b, x) for a, r in enumerate(m.nonzeros) for b, x in r)
                     for m in self.embed)
        self._verify(flat)
        table = graded.algebra.table
        self.np_tensor = _float_rows([c for row in table for c in row], dim).reshape((dim,) * 3)
        # A0 with its left multiplications, exact and as the float tensor's even block
        self.even_algebra = graded.even_algebra()
        self.even_left = operators(self.even_algebra.table, "left")
        self.even_tensor = self.np_tensor[np.ix_(*(graded.even,) * 3)]
        # the basis pairs (i, j) with a nonzero product, and their products
        self._pairs = np.nonzero(np.any(self.np_tensor, axis=2))
        self._pair_products = self.np_tensor[self._pairs]
        self.np_embed = _float_rows(flat, n * n).reshape(dim, n, n)
        self.np_unit = np.array(graded.algebra.unit, dtype=float)

    def _verify(self, flat):
        # the first failing triple (i, j, m) lies at the first failing pair (i, j)
        g = self.graded
        try:
            _square_zero_extension(g.algebra, self.embed, [Matrix.zero(self.n, self.n)] * g.dim)
        except BimoduleError as e:
            raise ValueError("embedding not multiplicative at basis pair ({},{})"
                             .format(*e.indices[:2])) from None
        unit_mat = self.realize(g.algebra.unit)
        if unit_mat != Matrix.identity(self.n):
            raise ValueError("embedding does not send the unit to the identity")
        if Matrix._sparse(g.dim, self.n ** 2, nz=flat).rank() != g.dim:
            raise ValueError("embedding is not injective")

    @property
    def dim(self) -> int:
        return self.graded.dim

    def realize(self, x) -> Matrix:
        """sum_i x_i embed_i; ValueError unless x has dim entries."""
        return _combination(vec(x, self.dim), self.embed, self.n)

    def realize_f(self, x) -> np.ndarray:
        """The matrices of float coordinate vectors x (..., dim), as (..., n, n)."""
        return np.tensordot(np.asarray(x, dtype=float), self.np_embed, 1)

    def _grams(self, x):
        """The Gram matrices m^T m of the realized matrices of x (..., dim),
        ``_GRAM_BLOCK`` at a time, as (start, grams, exp) for the rows from
        start on.  Each matrix is scaled by 2^-exp, a power of two near its
        largest entry, so that its Gram matrix can neither overflow nor
        underflow and scaling back is exact.  The blocks share one buffer,
        which the next block overwrites, so that the peak memory stays that
        of the realized stack.  A matrix with a NaN or infinite entry raises
        ``np.linalg.LinAlgError``."""
        m = self.realize_f(x).reshape((-1, self.n, self.n))
        gram = np.empty((min(len(m), _GRAM_BLOCK), self.n, self.n))  # one block, reused
        for s in range(0, len(m), _GRAM_BLOCK):
            b = m[s:s + _GRAM_BLOCK]
            big = np.maximum(b.max(axis=(1, 2)), -b.min(axis=(1, 2)))
            if not np.isfinite(big).all():
                raise np.linalg.LinAlgError("spectral norm of a matrix with a NaN or infinite entry")
            exp = np.frexp(big)[1]
            # in place, as the stack is this call's own: largest entry in [1/2, 1), or all 0
            np.ldexp(b, -exp[:, None, None], out=b)
            yield s, np.matmul(np.swapaxes(b, 1, 2), b, out=gram[:len(b)]), exp

    def op_norm(self, x):
        """Spectral norms of the realized matrices of x (..., dim).

        Each norm is the square root of the top eigenvalue of the Gram
        matrix m^T m (Golub & Van Loan, Matrix Computations, 2.3 and 8.1),
        which the symmetric eigensolver finds in about half the time of an
        SVD; it agrees with the SVD norm to about 1e-15 relative.  The Gram
        matrices come from ``_grams``, each norm from its own matrix alone,
        so the norms of a subset of the rows are those of the full call.  A
        matrix with a NaN or infinite entry raises ``np.linalg.LinAlgError``.
        """
        norms = np.empty(np.shape(x)[:-1])
        flat = norms.reshape(-1)
        for s, gram, exp in self._grams(x):
            flat[s:s + len(exp)] = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), exp)
        return norms[()]

    def norm_bounds(self, x):
        """Bounds (lo, hi) on ``op_norm(x)``, without an eigensolve.

        The top eigenvalue of a Gram matrix is at least its largest diagonal
        entry (a Rayleigh quotient) and at most its largest absolute row sum
        (Gershgorin's theorem; Golub & Van Loan 7.2 and 8.1); each square
        root is widened by a relative 1e-12, over 1000 times the rounding of
        the Gram matrix, the eigensolver and a product of three norms.  A
        matrix with a NaN or infinite entry raises ``np.linalg.LinAlgError``.
        """
        lo, hi = np.empty(np.shape(x)[:-1]), np.empty(np.shape(x)[:-1])
        lo_flat, hi_flat = lo.reshape(-1), hi.reshape(-1)
        for s, gram, exp in self._grams(x):
            rows = slice(s, s + len(exp))
            diag = np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
            lo_flat[rows] = np.ldexp(np.sqrt(diag) * (1 - 1e-12), exp)
            row_sums = np.abs(gram, out=gram).sum(axis=2).max(axis=1)  # the block is ours
            hi_flat[rows] = np.ldexp(np.sqrt(row_sums) * (1 + 1e-12), exp)
        return lo[()], hi[()]

    def multiply_f(self, x, y) -> np.ndarray:
        """Products x y of float coordinate vectors, broadcast over leading
        axes: a sum over the basis pairs whose product is nonzero."""
        i, j = self._pairs
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), y)
        terms = x[..., i]
        terms *= y[..., j]
        return terms @ self._pair_products


def _combination(coeffs: Vec, mats, n: int) -> Matrix:
    """sum_i coeffs_i mats_i for n x n matrices, row by row over the
    nonzeros of the matrices whose coefficient is nonzero."""
    c = [(i, x) for i, x in enumerate(coeffs) if x]
    return Matrix._sparse(n, n, nz=tuple(_pairs(_apply(rows, c, 0).items())
                                         for rows in zip(*(m.nonzeros for m in mats))))


def regular_realization(g: GradedAlgebra) -> MatrixRealization:
    """Left-multiplication realization; faithful because the algebra is unital."""
    return MatrixRealization(g, operators(g.algebra.table, "left"))


def mat_square_zero_extension(n: int) -> tuple[GradedAlgebra, MatrixRealization]:
    """Mat(n) extended by itself as a bimodule, realized by 2n x 2n blocks
    [[X, M], [0, X]]; the odd block squares to zero structurally."""
    a0 = matrix_algebra(n)
    g = make_trivial_extension(a0, operators(a0.table, "left"), operators(a0.table, "right"))

    def ones(*cells):  # the 2n x 2n matrix with a 1 in each of the cells, one a row
        at = dict(cells)
        return Matrix._sparse(2 * n, 2 * n, nz=tuple(((at[a], 1),) if a in at else ()
                                                      for a in range(2 * n)))

    pairs = [(i, j) for i in range(n) for j in range(n)]
    embed = ([ones((i, j), (n + i, n + j)) for i, j in pairs]
             + [ones((i, n + j)) for i, j in pairs])
    return g, MatrixRealization(g, embed)


def xi(g: GradedAlgebra, x) -> Vec:
    """Even-component projection, an idempotent endomorphism of the units:
    by the special grading xy = x0 y0 + (x0 y1 + x1 y0) + 0 has even part
    x0 y0 = xi(x) xi(y), and units have unit even parts (see ``invert_unit``).
    Exact: x is read as ``vec`` reads it; ValueError unless it has dim entries."""
    return g.even_part(x)


def _float_rows(rows, width: int) -> np.ndarray:
    """Sparse rows of (column, value) pairs as the rows of a float array."""
    out = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        for j, x in r:
            out[i, j] = float(x)
    return out


def invert_unit(r: MatrixRealization, x) -> Vec:
    """Inverse of a unit x0 + x1, namely x0^-1 - x0^-1 x1 x0^-1.

    Raises NotAUnitError exactly when the even component is not invertible,
    which the special grading makes the unit-group criterion.  The unit u is
    even: u1 = u u1 = u0 u1 and u1 = u1 u = u1 u0 as odd*odd = 0, while u u = u
    has odd part u0 u1 + u1 u0 = u1, so u1 = 0.  So xy = yx = 1 gives
    x0 y0 = y0 x0 = 1, and conversely the formula is a two-sided inverse, as
    x1 x0^-1 x1 = 0.  Exact: x is read as ``vec`` reads it, so a float is the
    rational it represents; ValueError unless it has dim entries.
    """
    g = r.graded
    x = vec(x, g.dim)
    # left multiplication by x0 on A0; column j is x0 e_j
    m = _combination([x[i] for i in g.even], r.even_left, len(g.even))
    y = solve(m, r.even_algebra.unit)
    if y is None:
        raise NotAUnitError("even component is singular")
    x0_inv = _row(g.dim, zip(g.even, y))
    x1 = g.odd_part(x)
    mul = g.algebra.multiply
    return tuple(a - b for a, b in zip(x0_inv, mul(x0_inv, mul(x1, x0_inv))))


def _unit_inverses(r: MatrixRealization, x: np.ndarray):
    """x0^-1 - x0^-1 x1 x0^-1 for the rows of x (..., dim), and each row's
    residual |x inv - 1| / max(1, |x| |inv|), inf for a singular even part.
    Rows with a residual above _UNIT_RESIDUAL are no units; their inverse is 0."""
    even = list(r.graded.even)
    # left multiplication by the even part, restricted to the even coordinates
    m = np.swapaxes(np.tensordot(x[..., even], r.even_tensor, 1), -1, -2)
    singular = np.linalg.slogdet(m)[0] == 0
    m[singular] = np.eye(len(even))  # solved as the unit, flagged below
    x0_inv = np.zeros(x.shape)
    unit = np.broadcast_to(r.np_unit[even, None], m.shape[:-1] + (1,))  # one column each
    x0_inv[..., even] = np.linalg.solve(m, unit)[..., 0]
    del m  # free the stacked matrices before the products
    x1 = x.copy()
    x1[..., even] = 0.0
    # with no odd part in any row, as for xi(x), x0^-1 x1 x0^-1 is zero
    inv = x0_inv - r.multiply_f(x0_inv, r.multiply_f(x1, x0_inv)) if x1.any() else x0_inv
    resid = np.linalg.norm(r.multiply_f(x, inv) - r.np_unit, axis=-1) / np.maximum(
        1.0, np.linalg.norm(x, axis=-1) * np.linalg.norm(inv, axis=-1))
    resid = np.where(singular, np.inf, resid)
    return np.where((resid <= _UNIT_RESIDUAL)[..., None], inv, 0.0), resid


def _not_a_unit(resid) -> NotAUnitError:
    return NotAUnitError(f"even component numerically singular (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# constraint families on the even part
# ---------------------------------------------------------------------------

class ConstraintFamily:
    """Polynomial conditions cutting the even-part group out of the units.

    ``evaluate`` takes even coordinate vectors (..., even_dim), ordered like
    ``g.even``, and returns residuals (..., m), one entry per constraint;
    members satisfy residual = 0.  The group counts the constraints at the
    unit.  ``sample`` draws ``count`` members as rows of a (count, even_dim)
    array.  Every family provides the exact Jacobian of its constraints at
    the unit, which makes tangent spaces exact.
    """

    name = "base"

    def check_compatible(self, g: GradedAlgebra):
        """Raise ValueError when the family cannot apply to ``g``."""

    def evaluate(self, g: GradedAlgebra, x0_even: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_at_unit(self, g: GradedAlgebra) -> Matrix:
        """Exact Jacobian (rows: constraints, cols: even coords)."""
        raise NotImplementedError

    def sample(self, r: MatrixRealization, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict:
        return {}


def _unit_even(g: GradedAlgebra) -> np.ndarray:
    return np.array(g.algebra.unit, dtype=float)[list(g.even)]


def _redraw(draw, accept, count: int, what: str) -> np.ndarray:
    """``count`` rows of ``draw`` that pass ``accept``; the rejected rows are
    drawn again as one batch, up to _SAMPLE_RETRIES tries for each row."""
    out = draw(count)
    for _ in range(_SAMPLE_RETRIES):
        rejected = ~accept(out)
        if not rejected.any():
            return out
        out[rejected] = draw(int(rejected.sum()))
    raise SamplingError(what)


class NoConstraints(ConstraintFamily):
    """The full unit group: only invertibility of the even part."""

    name = "none"

    def evaluate(self, g, x0_even):
        return np.zeros(np.shape(x0_even)[:-1] + (0,))

    def jacobian_at_unit(self, g):
        return Matrix.zero(0, len(g.even))

    def sample(self, r, rng, count):
        unit_even = _unit_even(r.graded)
        return _redraw(lambda k: unit_even + 0.5 * rng.standard_normal((k, unit_even.size)),
                       lambda x0: np.abs(np.linalg.det(np.tensordot(x0, r.even_tensor, 1))) > 1e-3,
                       count, "could not sample an invertible even element")


class _MatrixConstraints(ConstraintFamily):
    """A family on an even part that is Mat(n) in row-major matrix-unit order."""

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"{self.name} constraints need an integer n >= 1, not {n!r}")
        self.n = n

    def params(self):
        return {"n": self.n}

    def check_compatible(self, g):
        n = self.n
        if len(g.even) != n * n:
            raise ValueError(f"{self.name} constraints need an even part of dimension {n * n}")
        # E_ab E_cd = delta_bc E_ad on the even basis in row-major order; a
        # product with an odd component differs from every such cell
        e, t = g.even, g.algebra.table
        if any(t[e[a * n + b]][e[c * n + d]] != (((e[a * n + d], 1),) if b == c else ())
               for a, b, c, d in itertools.product(range(n), repeat=4)):
            raise ValueError(
                f"{self.name} constraints need the even part to be the n x n "
                f"matrix algebra in row-major basis order")


class OrthogonalConstraints(_MatrixConstraints):
    """Even part Mat(n), constraint X^T X = I."""

    name = "orthogonal"

    def evaluate(self, g, x0_even):
        x = np.asarray(x0_even, dtype=float)
        m = x.reshape(x.shape[:-1] + (self.n, self.n))
        return (np.swapaxes(m, -1, -2) @ m - np.eye(self.n)).reshape(x.shape)

    def jacobian_at_unit(self, g):
        n = self.n
        # row (a, b) is the differential of (X^T X)_ab at X = 1: dX_ba + dX_ab (2 dX_aa if a = b)
        cells = ({a * n + b, b * n + a} for a in range(n) for b in range(n))
        return Matrix._sparse(n * n, n * n, nz=tuple(
            tuple((k, 2 // len(ks)) for k in sorted(ks)) for ks in cells))

    def sample(self, r, rng, count):
        q, t = np.linalg.qr(rng.standard_normal((count, self.n, self.n)))
        q = q * np.sign(np.diagonal(t, axis1=-2, axis2=-1))[:, None, :]
        return q.reshape(count, -1)


class SpecialLinearConstraints(_MatrixConstraints):
    """Even part Mat(n), constraint det X = 1."""

    name = "special-linear"

    def evaluate(self, g, x0_even):
        x = np.asarray(x0_even, dtype=float)
        return np.linalg.det(x.reshape(x.shape[:-1] + (self.n, self.n)))[..., None] - 1.0

    def jacobian_at_unit(self, g):
        n = self.n
        return Matrix._sparse(1, n * n, nz=(tuple((a * n + a, 1) for a in range(n)),))

    def sample(self, r, rng, count):
        x = _redraw(lambda k: rng.standard_normal((k, self.n, self.n)),
                    lambda x: np.abs(np.linalg.det(x)) >= 0.1,
                    count, "could not sample a well-conditioned matrix")
        d = np.linalg.det(x)
        x[d < 0, 0] *= -1.0  # flip the first row where det < 0
        return (x / np.abs(d)[:, None, None] ** (1.0 / self.n)).reshape(count, -1)


class UnipotentConstraints(ConstraintFamily):
    """Even part pinned to the unit: the square-zero group 1 + V1."""

    name = "unipotent-block"

    def evaluate(self, g, x0_even):
        return np.asarray(x0_even, dtype=float) - _unit_even(g)

    def jacobian_at_unit(self, g):
        return Matrix.identity(len(g.even))

    def sample(self, r, rng, count):
        return np.tile(_unit_even(r.graded), (count, 1))


_FAMILIES = {cls.name: cls for cls in (NoConstraints, OrthogonalConstraints,
                                        SpecialLinearConstraints, UnipotentConstraints)}


def constraint_family(name: str, **params) -> ConstraintFamily:
    """The named family built from its parameters; an unknown parameter
    raises TypeError."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown constraint family {name!r}")
    return _FAMILIES[name](**params)


# ---------------------------------------------------------------------------
# linear xi-groups
# ---------------------------------------------------------------------------

class LinearXiGroup:
    """Product-form subgroup {x0 + x1 : p(x0) = 0, x1 in V1} of the units."""

    def __init__(self, realization: MatrixRealization, constraints: ConstraintFamily,
                 odd_subspace: Subspace | None = None,
                 tolerance: float = DEFAULT_TOLERANCE):
        g = realization.graded
        self.realization = realization
        self.constraints = constraints
        odd_dim = len(g.odd)
        self.odd_subspace = odd_subspace if odd_subspace is not None else full_space(odd_dim)
        if self.odd_subspace.ambient_dim != odd_dim:
            raise ValueError(
                f"odd subspace ambient {self.odd_subspace.ambient_dim} != {odd_dim}")
        try:
            self.tolerance = float(tolerance)
        except OverflowError:  # an int or Fraction past the float range
            self.tolerance = math.inf
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite nonnegative number, not {tolerance!r}")
        constraints.check_compatible(g)
        self._even = list(g.even)
        self._odd = list(g.odd)
        resid = constraints.evaluate(g, realization.np_unit[self._even])
        if resid.size and float(np.max(np.abs(resid))) > 1e-12:
            raise ValueError("the identity does not satisfy the constraints")
        self.num_constraints = resid.size
        self._v1 = _float_rows(self.odd_subspace.nonzeros, odd_dim)
        self._v1_proj = self._v1.T @ np.linalg.pinv(self._v1.T)

    @property
    def graded(self) -> GradedAlgebra:
        return self.realization.graded

    def membership_residual(self, x):
        """Distance of each point of x (..., dim) from the defining conditions:
        constraints + odd subspace."""
        x = np.asarray(x, dtype=float)
        resid = self.constraints.evaluate(self.graded, x[..., self._even])
        v = x[..., self._odd]
        return np.maximum(np.max(np.abs(resid), axis=-1, initial=0.0),
                          np.linalg.norm(v - v @ self._v1_proj.T, axis=-1))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` group elements drawn at random, as rows."""
        x = np.zeros((count, self.graded.dim))
        x[:, self._even] = self.constraints.sample(self.realization, rng, count)
        x[:, self._odd] = rng.standard_normal((count, self._v1.shape[0])) @ self._v1
        return x


@dataclass(frozen=True)
class XiGroupReport:
    holds: bool
    samples: int
    worst_residual: float
    witness: tuple | None = None  # (x, h, residual)


def check_sample_count(what: str, samples: int, dim: int):
    """Raise ValueError, before anything is drawn, unless samples is an
    integer (numpy's included, a bool not), 1 <= samples and
    samples x (dim^2 + 16 dim) <= MAX_SAMPLE_FLOATS: no samples would be no
    evidence."""
    try:
        if isinstance(samples, bool):
            raise TypeError
        samples = operator.index(samples)  # a Python int: a numpy one would wrap in the product
    except TypeError:
        raise ValueError(f"{what} needs an integer sample count, not {samples!r}") from None
    if samples < 1:
        raise ValueError(f"{what} needs at least one sample, got {samples}")
    if samples * (dim * dim + 16 * dim) > MAX_SAMPLE_FLOATS:
        raise ValueError(f"{what} with {samples} samples at dim {dim} is above the limit "
                         f"of {MAX_SAMPLE_FLOATS} for samples x (dim^2 + 16 dim)")


def check_xi_group(group: LinearXiGroup, samples: int = 1000, seed: int = 0) -> XiGroupReport:
    """Sampled conjugation-stability check: xi(x) h xi(x)^-1 must satisfy the
    group's membership conditions within tolerance, for sampled x, h.
    The sample count is checked by ``check_sample_count``."""
    check_sample_count("xi-group check", samples, group.graded.dim)
    rng = np.random.default_rng(seed)
    r = group.realization
    x, h = group.sample(rng, samples), group.sample(rng, samples)
    xe = x.copy()  # xi(x)
    xe[:, group._odd] = 0.0
    xe_inv, unit_resid = _unit_inverses(r, xe)
    if not np.all(unit_resid <= _UNIT_RESIDUAL):
        raise _not_a_unit(np.max(unit_resid))
    conj = r.multiply_f(r.multiply_f(xe, h), xe_inv)
    raw = group.membership_residual(conj)
    del conj  # free it before the norms
    factors = (x, 1), (h, 1), (xe_inv, 1)
    if raw.any():
        # the rows whose bounds leave them able to reach the worst residual;
        # ~(a < b) keeps a row with a NaN
        lo, hi = _scale_bounds(r, factors)
        rows = np.flatnonzero(~(raw / lo < np.max(raw / hi)))
    else:  # 0 at any scale
        rows = np.zeros(1, dtype=int)
    resid = raw[rows] / _scale(r, factors, rows)
    j = int(np.argmax(resid))  # the first worst sample: every worst one is in rows, in order
    i, worst = rows[j], float(resid[j])
    witness = (x[i], h[i], worst) if worst > group.tolerance else None
    return XiGroupReport(worst <= group.tolerance, samples, worst, witness)


def _scale_bounds(r: MatrixRealization, factors):
    """Bounds (lo, hi) on ``_scale`` at every row, from ``norm_bounds``."""
    lo = hi = 1.0
    for a, k in factors:
        a_lo, a_hi = r.norm_bounds(a)
        lo, hi = lo * a_lo ** k, hi * a_hi ** k
    return np.maximum(1.0, lo, out=lo), np.maximum(1.0, hi, out=hi)


def _scale(r: MatrixRealization, factors, rows):
    """max(1, the product of op_norm(a) ** k over the factors (a, k)) at rows."""
    return np.maximum(1.0, math.prod(r.op_norm(a[rows]) ** k for a, k in factors))


def _above_scaled(r: MatrixRealization, resid, tol: float, *factors):
    """resid > tol ``_scale``, row by row, with an exact norm only for the
    rows that the norm bounds leave open."""
    lo, hi = _scale_bounds(r, factors)
    above = resid > tol * hi
    rows = np.flatnonzero(~above & (resid > tol * lo))
    if rows.size:
        above[rows] = resid[rows] > tol * _scale(r, factors, rows)
    return above


def verify_group_closure(group: LinearXiGroup, samples: int = 32, seed: int = 0) -> Report:
    """Sampled closure of the product-form set under products and inverses;
    the sample count is checked by ``check_sample_count``."""
    check_sample_count("group closure check", samples, group.graded.dim)
    rng = np.random.default_rng(seed)
    r = group.realization
    tol = group.tolerance
    x, y = group.sample(rng, samples), group.sample(rng, samples)
    prod = r.multiply_f(x, y)
    prod_resid = group.membership_residual(prod)
    prod_bad = _above_scaled(r, prod_resid, tol, (x, 1), (y, 1))
    inv, unit_resid = _unit_inverses(r, x)
    inv_resid = group.membership_residual(inv)
    non_unit = ~(unit_resid <= _UNIT_RESIDUAL)
    inv_bad = non_unit | _above_scaled(r, inv_resid, tol, (inv, 2))
    # the first failing sample in draw order, its product checked before its inverse
    failed = np.flatnonzero(prod_bad | inv_bad)
    if not failed.size:
        return ok("group closure")
    i = failed[0]
    if prod_bad[i]:
        return fail("closure under product",
                    (vec(map(Fraction, x[i])), vec(map(Fraction, y[i]))),
                    vec(map(Fraction, prod[i])), zeros(r.dim),
                    note=f"residual {prod_resid[i]:.3e}")
    if non_unit[i]:
        raise _not_a_unit(unit_resid[i])
    return fail("closure under inverse", (vec(map(Fraction, x[i])),),
                vec(map(Fraction, inv[i])), zeros(r.dim),
                note=f"residual {inv_resid[i]:.3e}")


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentSpace:
    """Derivatives at 0 of curves through the unit staying in the group.

    For product-form groups this is ker(constraint Jacobian at the unit) on
    the even side plus the whole odd subspace.  Every family's Jacobian is
    rational, so the kernel, and with it the tangent space, is exact.
    """

    subspace: Subspace
    exact: ClassVar[bool] = True


def tangent_space(group: LinearXiGroup) -> TangentSpace:
    """Kernel of the even-constraint Jacobian at the unit, plus V1, exactly."""
    g = group.graded
    j = group.constraints.jacobian_at_unit(g)
    if j.rows != group.num_constraints or j.cols != len(g.even):
        raise RuntimeError("constraint Jacobian has the wrong shape; family bug")
    even_ker = kernel(j)
    # pivot rows of ker J and V1 relabelled by g.even, g.odd (disjoint, increasing): still RREF
    rows = {at[p]: {at[c]: x for c, x in r.items()} for s, at in
            ((even_ker, g.even), (group.odd_subspace, g.odd)) for p, r in s._rows.items()}
    return TangentSpace(Subspace(g.dim, rows))


def verify_tangent_huliu(t: TangentSpace, r: MatrixRealization) -> Report:
    """The tangent space is a Hu-Liu algebra under the derived brackets
    exactly when it is closed under both of them.

    ``derive_huliu`` builds and verifies the ambient pair on the whole
    graded algebra: the angle bracket <x,y> = x y0 - y0 x and the commutator
    [x,y] = xy - yx.  Each declared identity (right Leibniz, antisymmetry,
    Jacobi and the four compatibility identities) is multilinear, so it holds
    for all vectors of the ambient space, hence for those of any subspace
    closed under both brackets; the restricted pair is Hu-Liu with nothing
    left to check.  The failing report names the first basis pair whose
    bracket leaves the tangent space.
    """
    rep = is_huliu_subalgebra(derive_huliu(r.graded), t.subspace)
    if not rep.holds:
        return replace(rep, witness=replace(
            rep.witness, note="bracket value leaves the tangent space"))
    return ok("tangent Hu-Liu structure" + (" (trivial)" if t.subspace.dim == 0 else ""))


# ---------------------------------------------------------------------------
# curves through the identity
# ---------------------------------------------------------------------------

def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a fixed [6/6] Pade
    approximant; adequate at double precision for norms up to ~10 after
    scaling."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a, 1))
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0 ** s)
    ident = np.eye(a.shape[0])
    # Pade [6/6] coefficients via the standard recurrence
    c = 1.0
    num = den = power = ident  # rebound below, never written in place
    for k in range(1, 7):
        c = c * (7 - k) / (k * (13 - k))
        power = power @ a
        num = num + c * power
        den = den + ((-1) ** k) * c * power
    r = np.linalg.solve(den, num)
    for _ in range(s):
        r = r @ r
    return r


@dataclass(frozen=True)
class CurveReport:
    """Membership residuals of the exp curve through the unit."""

    holds: bool
    t_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float


def exp_curve_check(group: LinearXiGroup, x, t_grid) -> CurveReport:
    """Walk the curve a(t) = exp(t L_x) 1, with a(0) = 1 and a'(0) = x, and
    measure how far it leaves the group (constraint residual plus odd-part
    distance from V1).

    L_x is left multiplication by x on the algebra; L is multiplicative, so
    the curve is the power series exp(t x) taken in algebra coordinates.
    For tangent x of a group whose constraints are preserved by exp
    (orthogonality from skewness, unit determinant from tracelessness) the
    residual stays at rounding level.  The grid needs at least one t, and a
    residual that is not finite, as at t = nan or inf, fails the check.
    """
    r = group.realization
    xf = np.array(x, dtype=float)
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ValueError("curve check needs at least one t")
    left = np.tensordot(xf, r.np_tensor, 1).T  # column j is x e_j
    coords = np.array([expm(t * left) @ r.np_unit for t in ts])
    residuals = tuple(map(float, group.membership_residual(coords)))
    scale = max(1.0, *np.linalg.norm(coords, axis=-1))
    worst = float(np.max(residuals))  # NaN if any residual is
    return CurveReport(bool(np.isfinite(worst) and worst <= group.tolerance * scale),
                       ts, residuals, worst)
