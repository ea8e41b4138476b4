"""Known-answer Leibniz algebras for the classifier workload.

Each generator returns a dense bracket table ``t[i][j][k]`` (the coefficient
of e_k in <e_i, e_j>), from which the workload builds a ``LeibnizAlgebra``.
The families and the verdict each must receive:

- ``sl2_semidirect_table(ns)``: sl2 + V_n1 + V_n2 + ..., where V_n is the
  irreducible sl2-module of highest weight n (dimension n + 1).  The bracket
  is [x, y] on sl2, <v, x> = -x.v for v in a module and x in sl2, and zero
  otherwise.  Right multiplication by x in sl2 is minus the module action,
  so it is a derivation and the right Leibniz identity holds.  The squares
  <x + v, x + v> = -x.v span the module part, which is the annihilator.
  With one summand (n >= 1) the annihilator is irreducible, the quotient is
  the simple sl2 and the split sl2 is not an ideal, so the algebra is
  Simple.  With two summands each summand is an ideal: NotSimple.
- ``rotation_table(p)``: Q x + Q^(p-1) with <v, x> = C v, C the companion
  matrix of the p-th cyclotomic polynomial.  The annihilator is Q^(p-1), which is
  irreducible because that polynomial is irreducible over Q; the quotient is
  one-dimensional and no complement is invariant, so the algebra is Simple.
  The operator algebra on the annihilator is the field Q(zeta_p), which has
  no nullity-one elements, so a null-space/spin test cannot certify it.
"""

from __future__ import annotations

from fractions import Fraction

E, F, H = 0, 1, 2
SL2_BRACKET = {(E, F): {H: 1}, (F, E): {H: -1},
               (H, E): {E: 2}, (E, H): {E: -2},
               (H, F): {F: -2}, (F, H): {F: 2}}


def sl2_action(x: int, n: int, k: int) -> dict[int, int]:
    """x.v_k in V_n as {index: coefficient}, basis v_0 (highest) .. v_n."""
    if x == H:
        return {k: n - 2 * k} if n - 2 * k else {}
    if x == F:
        return {k + 1: k + 1} if k < n else {}
    return {k - 1: n - k + 1} if k > 0 else {}


def _dense(dim: int, entries: dict[tuple[int, int, int], int]):
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in entries.items():
        t[i][j][k] += c
    return t


def sl2_semidirect_table(ns: tuple[int, ...]):
    dim = 3 + sum(n + 1 for n in ns)
    entries: dict[tuple[int, int, int], int] = {}
    for (i, j), out in SL2_BRACKET.items():
        for k, c in out.items():
            entries[(i, j, k)] = c
    offset = 3
    for n in ns:
        for x in (E, F, H):
            for k in range(n + 1):
                for m, c in sl2_action(x, n, k).items():
                    entries[(offset + k, x, offset + m)] = -c
        offset += n + 1
    return _dense(dim, entries)


def rotation_table(p: int):
    """Companion matrix C of 1 + t + ... + t^(p-1) acting by <v, x> = C v."""
    dim = p
    entries: dict[tuple[int, int, int], int] = {}
    q = p - 1
    for col in range(q):
        if col < q - 1:
            entries[(1 + col, 0, 1 + col + 1)] = 1
        else:
            for row in range(q):
                entries[(1 + col, 0, 1 + row)] = -1
    return _dense(dim, entries)
