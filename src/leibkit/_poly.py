"""Modules with one operator, decided by its characteristic polynomial.

When every nonzero operator of a module V of dimension d >= 2 is a rational
multiple of one operator T, the submodules are the T-invariant subspaces.
If the Krylov space of e_0 under T is all of V, the first dependency of
e_0, T e_0, ..., T^d e_0 gives the characteristic polynomial chi of T, and
V is the cyclic Q[T]-module Q[x]/(chi).  If chi is irreducible over Q,
Q[T] is a field and V is a one-dimensional vector space over it, so V has
no proper nonzero submodule: the module is irreducible.

Irreducibility over Q is certified by one prime q of ``PRIMES``.  Let q
divide no denominator of the monic chi, let chi mod q be squarefree, and
let Berlekamp's matrix Q - I of chi mod q have nullity 1.  For squarefree f
mod q that nullity is the number of irreducible factors of f (Berlekamp,
"Factoring polynomials over finite fields", 1967), so chi is irreducible
mod q.  A factorization of chi over Q into monic factors has q-integral
factors (Gauss's lemma over the localization Z_(q)), and it would reduce to
a factorization mod q of the same degrees; so chi is irreducible over Q.
The rank of Q - I runs on linalg's one reducer mod q.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, _add, _apply, _reduce
from .modules import OperatorModule

# the primes tried, in order, for the certificate
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def certifying_prime(mod: OperatorModule) -> int | None:
    """A prime q that proves the module irreducible, as the module docstring
    shows, or None when none does: dimension d < 2, two nonzero operators
    that are not multiples of one another, a proper Krylov space of e_0, or
    a characteristic polynomial that no prime of ``PRIMES`` certifies.
    Nothing is random."""
    d = mod.dim
    if d < 2 or (t := _one_operator(mod.operators)) is None:
        return None
    chi = _charpoly(t._cols, d)
    if chi is None:
        return None
    for q in PRIMES:
        if all(c.denominator % q for c in chi):
            f = [c.numerator * pow(c.denominator, -1, q) % q for c in chi] + [1]
            if _squarefree(f, q) and berlekamp_nullity(f, q) == 1:
                return q
    return None


def _one_operator(operators) -> Matrix | None:
    """The first nonzero operator T when every nonzero operator is a
    rational multiple of it, else None; the check stops at the first
    operator that is not.  A multiple c T has c at T's first nonzero entry,
    (row i0, column j0), over T's entry x0 there."""
    ops = (s for s in operators if not s.is_zero())
    t = next(ops, None)
    if t is None:
        return None
    cols = t._cols
    j0 = next(j for j, c in enumerate(cols) if c)
    i0, x0 = cols[j0][0]
    for s in ops:
        first = s._cols[j0]
        if not first or first[0][0] != i0:
            return None
        c = Fraction(first[0][1]) / x0
        if any(a != tuple((i, c * x) for i, x in b) for a, b in zip(s._cols, cols)):
            return None
    return t


def _charpoly(cols, d: int) -> list | None:
    """The coefficients c_0 .. c_(d-1) of the monic characteristic
    polynomial x^d + sum c_j x^j of the operator with the given columns,
    from the Krylov sequence v_k = T^k e_0, or None when v_0 .. v_(d-1) are
    dependent.  Each v_k is reduced with a tag 1 at column d + k, so a
    remainder zero below column d reads the dependency off its tags."""
    piv: dict[int, dict] = {}
    v = ((0, 1),)
    for k in range(d + 1):
        row = _reduce(piv, (*v, (d + k, 1)))
        if k == d:
            # v_0 .. v_(d-1) span Q^d: sum_j row[d + j] v_j + v_d = 0
            return [Fraction(row.get(d + j, 0)) for j in range(d)]
        if min(row) >= d:
            return None  # v_k depends on the vectors before it
        _add(piv, row.items())
        v = tuple(_apply(cols, v, 0).items())


def _rem(a: list[int], b: list[int], q: int) -> list[int]:
    """a mod b over GF(q), coefficients from degree 0 up, b's last nonzero."""
    a, inv, n = list(a), pow(b[-1], -1, q), len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        if c := a[top] * inv % q:
            for i in range(n + 1):
                a[top - n + i] = (a[top - n + i] - c * b[i]) % q
    a = a[:n]
    while a and not a[-1]:
        a.pop()
    return a


def _squarefree(f: list[int], q: int) -> bool:
    """Whether the monic f of degree >= 1 is squarefree over GF(q): gcd(f, f')
    is a nonzero constant.  f' = 0 gives gcd f, of degree >= 1."""
    a, b = f, [i * c % q for i, c in enumerate(f)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _rem(a, b, q)
    return len(a) == 1


def berlekamp_nullity(f: list[int], q: int) -> int:
    """The nullity of Q - I for the monic f of degree d over GF(q), Q's row i
    being x^(q i) mod f: the number of distinct irreducible factors of f.
    Each power is the one before it times x, reduced by f's lower
    coefficients."""
    d = len(f) - 1
    piv: dict[int, dict] = {}
    r = [1] + [0] * (d - 1)  # x^0 mod f
    for i in range(d):
        _add(piv, [(j, x) for j, c in enumerate(r) if (x := (c - (j == i)) % q)], q)
        if i < d - 1:
            for _ in range(q):
                top, r = r[-1], [0] + r[:-1]
                if top:
                    r = [(c - top * y) % q for c, y in zip(r, f)]
    return d - len(piv)
