"""GF(q) addition and multiplication tables.

An element of GF(p^e) is a polynomial of degree < e over GF(p), reduced
modulo a fixed monic irreducible polynomial. Coefficient vectors are
little-endian (coeffs[i] multiplies x^i) and every element is identified
with its integer encoding sum(coeffs[i] * p**i), so element equality is
plain integer equality. A field is its two tables on these encodings;
the plane and unital constructions read nothing else. Field order is
capped at 625, the order of GF(q^2) for the largest plane order 25.

The irreducible polynomial is chosen deterministically: the
lexicographically least monic irreducible of degree e over GF(p), where
polynomials are compared by their coefficient tuples in descending powers
(x^{e-1} first). Irreducibility is established by exhaustive trial
division by all monic polynomials of degree 1..e//2.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .errors import GeometryError

MAX_ORDER = 625


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with p prime and p**e == n, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return (n, 1)  # n has no divisor <= sqrt(n), hence prime


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m over GF(p), as its
    deg(m) little-endian coefficients."""
    r = list(a)
    dm = len(m) - 1
    while len(r) > dm:
        lead = r.pop()
        shift = len(r) - dm
        for i in range(dm):
            r[shift + i] = (r[shift + i] - lead * m[i]) % p
    return r


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Exhaustive factor check: no monic divisor of degree 1..deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not any(_poly_mod(f, tail + (1,), p)):
                return False
    return True


def least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over GF(p).

    Order: coefficient tuples compared in descending powers. For e == 1
    the result is the polynomial x itself.
    """
    if e == 1:
        return (0, 1)
    for desc in product(range(p), repeat=e):
        f = desc[::-1] + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


class Field(NamedTuple):
    """GF(q) as its tables: add[a][b] and mul[a][b] are the encodings of
    a + b and a * b."""
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


def field_create(q: int) -> Field:
    """The tables of GF(q) under least_irreducible(p, e), q = p^e <= 625.

    The cap is checked before q is factored, so a huge q is refused at
    once; below it, a q that is not a prime power is refused. Both raise
    GeometryError.

    Each row is filled from an earlier row. If k is the lowest nonzero
    digit of a, then a - p^k keeps every other digit of a, so add[a] is
    add[a - p^k] with digit k of every entry raised by one, and
    mul[a][b] = add[mul[a - p^k][b]][b * x^k].
    """
    if q > MAX_ORDER:
        raise GeometryError(f"field order {q} exceeds {MAX_ORDER}")
    pe = prime_power(q)
    if pe is None:
        raise GeometryError(f"{q} is not a prime power")
    p, e = pe
    powers = [p**k for k in range(e)]
    low = [0] * q  # low[a]: the position of the lowest nonzero digit of a
    for a in range(p, q, p):
        low[a] = low[a // p] + 1
    # raised[k][c]: c with its digit k raised by one, mod p
    raised = [[c - (p - 1) * s if c // s % p == p - 1 else c + s for c in range(q)]
              for s in powers]
    add = [tuple(range(q))]
    for a in range(1, q):
        k = low[a]
        add.append(tuple([raised[k][c] for c in add[a - powers[k]]]))
    # b * x: digits shifted up, the top digit t folded back as t * x^e,
    # where x^e = -(f_0 + f_1 x + ... + f_{e-1} x^{e-1})
    f = least_irreducible(p, e)
    top = powers[-1]
    fold = [sum((-t * c) % p * s for c, s in zip(f, powers)) for t in range(p)]
    times_x = [add[b % top * p][fold[b // top]] for b in range(q)]
    by_xk = [add[0]]  # by_xk[k][b] = b * x^k
    for _ in range(e - 1):
        by_xk.append(tuple([times_x[b] for b in by_xk[-1]]))
    mul = [(0,) * q]
    for a in range(1, q):
        k = low[a]
        mul.append(tuple([add[m][t] for m, t in zip(mul[a - powers[k]], by_xk[k])]))
    return Field(tuple(add), tuple(mul))
