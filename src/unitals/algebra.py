"""Exact arithmetic in small finite fields GF(p^e).

An element of GF(p^e) is a polynomial of degree < e over GF(p), reduced
modulo a fixed monic irreducible polynomial. Coefficient vectors are
little-endian (coeffs[i] multiplies x^i) and every element is identified
with its integer encoding sum(coeffs[i] * p**i), so element equality is
plain integer equality and elements are always in canonical reduced form.

Each field precomputes discrete exp/log tables for its multiplicative
group at construction (an internal cache; the defining arithmetic is
polynomial arithmetic mod the irreducible). Multiplication and powering
(inversion is the power -1) are then table lookups. Field size is capped
at 2**16.

A field meant to act as the quadratic extension GF(q^2) over GF(q) is
created with ``quadratic_extension(q)``; it records the base order q
explicitly so that the conjugation x -> x**q is unambiguous.

The irreducible polynomial is chosen deterministically: the
lexicographically least monic irreducible of degree e over GF(p), where
polynomials are compared by their coefficient tuples in descending powers
(x^{e-1} first). Irreducibility is established by exhaustive trial
division by all monic polynomials of degree 1..e//2.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import (
    CompositeCharacteristic,
    DivisionByZero,
    NotPrimePower,
    NotQuadraticExtension,
    TooLarge,
)

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# --- polynomial arithmetic over GF(p), little-endian coefficient lists ---

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim(r)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Exhaustive factor check: no monic divisor of degree 1..deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod(f, g, p):
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
        f = list(reversed(desc)) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


class FieldSpec:
    """A concrete field GF(p^e) with fixed irreducible and cached tables.

    Instances are immutable after construction and safe to share. Two
    specs are equal iff they agree on (p, e, irreducible, base_order).
    """

    def __init__(self, p: int, e: int, base_order: int | None = None):
        if not is_prime(p):
            raise CompositeCharacteristic(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        order = p**e
        if order > MAX_ORDER:
            raise TooLarge(f"p^e = {order} exceeds {MAX_ORDER}")
        self.p = p
        self.e = e
        self.order = order
        self.irreducible = least_irreducible(p, e)
        self.base_order = base_order
        if base_order is not None and base_order * base_order != order:
            raise NotQuadraticExtension(
                f"GF({order}) is not a quadratic extension of GF({base_order})")
        self._digits = self._make_digits()
        self._exp, self._log = self._make_exp_log()

    # -- construction helpers --

    def _make_digits(self) -> list[tuple[int, ...]]:
        p, e = self.p, self.e
        digits = []
        for idx in range(self.order):
            v, ds = idx, []
            for _ in range(e):
                ds.append(v % p)
                v //= p
            digits.append(tuple(ds))
        return digits

    def _poly_mul_idx(self, a: int, b: int) -> int:
        prod = _poly_mul(self._digits[a], self._digits[b], self.p)
        red = _poly_mod(prod, self.irreducible, self.p)
        idx = 0
        for c in reversed(red):
            idx = idx * self.p + c
        return idx

    def _make_exp_log(self) -> tuple[list[int], list[int | None]]:
        n = self.order - 1  # multiplicative group order
        g = self._find_generator(n)
        exp: list[int] = [1]
        for _ in range(n - 1):
            exp.append(self._poly_mul_idx(exp[-1], g))
        log: list[int | None] = [None] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        if any(log[v] is None for v in range(1, self.order)):
            raise AssertionError("generator search produced a non-generator")
        return exp, log

    def _find_generator(self, n: int) -> int:
        if n == 1:
            return 1
        factors = []
        m, d = n, 2
        while d * d <= m:
            if m % d == 0:
                factors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            factors.append(m)
        for g in range(1, self.order):
            if all(self._pow_naive(g, n // f) != 1 for f in factors):
                return g
        raise AssertionError("no generator found")

    def _pow_naive(self, a: int, n: int) -> int:
        result, base = 1, a
        while n:
            if n & 1:
                result = self._poly_mul_idx(result, base)
            base = self._poly_mul_idx(base, base)
            n >>= 1
        return result

    # -- arithmetic on integer encodings --

    def add_idx(self, a: int, b: int) -> int:
        p = self.p
        da, db = self._digits[a], self._digits[b]
        idx = 0
        for i in range(self.e - 1, -1, -1):
            idx = idx * p + (da[i] + db[i]) % p
        return idx

    def mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def pow_idx(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        if a == 0:
            if n < 0:
                raise DivisionByZero("zero to a negative power")
            return 0
        m = self.order - 1
        return self._exp[(self._log[a] * n) % m]

    def conj_idx(self, a: int) -> int:
        if self.base_order is None:
            raise NotQuadraticExtension(
                f"GF({self.order}) carries no base-field tag")
        return self.pow_idx(a, self.base_order)

    # -- identity --

    def _key(self):
        return (self.p, self.e, self.irreducible, self.base_order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.order})=GF({self.p}^{self.e})"


def field_create(p: int, e: int) -> FieldSpec:
    """GF(p^e) with the deterministic least irreducible polynomial."""
    return FieldSpec(p, e)


def quadratic_extension(q: int) -> FieldSpec:
    """GF(q^2) tagged with base order q, for conjugation x -> x**q."""
    pe = prime_power(q)
    if pe is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, f = pe
    return FieldSpec(p, 2 * f, base_order=q)

