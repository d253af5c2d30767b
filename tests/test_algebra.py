"""Field tables: worked examples, automorphism facts, exhaustive axioms."""

import numpy as np
import pytest

from unitals.algebra import field_create, least_irreducible, prime_power
from unitals.errors import GeometryError

PRIMES_625 = [p for p in range(2, 626) if all(p % d for d in range(2, p))]
EXTENSION_ORDERS_625 = sorted(
    p**e for p in PRIMES_625 for e in range(2, 10) if p**e <= 625)


def _power(F, a, n):
    """a**n for n >= 0 by repeated table multiplication."""
    out = 1
    for _ in range(n):
        out = F.mul[out][a]
    return out


def test_create_prime_field():
    F = field_create(3)
    assert F.add == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert F.mul == ((0, 0, 0), (0, 1, 2), (0, 2, 1))


def test_create_gf9_least_irreducible():
    # independent derivation: scan monic quadratics x^2 + b x + c over GF(3)
    # in (b, c) order and take the first without a root
    expected = None
    for b in range(3):
        for c in range(3):
            if all((t * t + b * t + c) % 3 != 0 for t in range(3)):
                expected = (c, b, 1)
                break
        if expected:
            break
    assert least_irreducible(3, 2) == expected == (1, 0, 1)


def test_create_rejects_non_prime_power():
    for q in (1, 6, 12):
        with pytest.raises(GeometryError, match=f"^{q} is not a prime power$"):
            field_create(q)


def test_create_rejects_oversized_field(monkeypatch):
    def factor(n):  # trial division of 2^61 - 1 would run for hours
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr("unitals.algebra.prime_power", factor)
    for q in (626, 2**61 - 1):
        with pytest.raises(GeometryError, match=f"^field order {q} exceeds 625$"):
            field_create(q)


def test_gf9_inverse_law():
    F = field_create(9)
    for a in range(1, 9):
        assert F.mul[a].count(1) == 1


def test_gf4_multiplicative_group_order():
    F = field_create(4)
    for g in range(2, 4):
        assert _power(F, g, 3) == 1
        assert _power(F, g, 2) != 1


def test_gf9_frobenius_fixes_field():
    F = field_create(9)
    for a in range(9):
        assert _power(F, a, 9) == a


# --- conjugation x -> x^q on GF(q^2) ---

def test_conjugate_is_involution_gf9():
    K = field_create(9)
    for a in range(9):
        assert _power(K, _power(K, a, 3), 3) == a


def test_conjugate_fixed_field_size():
    K = field_create(9)
    assert sum(1 for a in range(9) if _power(K, a, 3) == a) == 3


def test_gf4_norm_lands_in_subfield():
    K = field_create(4)
    for a in range(4):
        norm = K.mul[a][_power(K, a, 2)]
        assert _power(K, norm, 2) == norm  # fixed by the automorphism
        assert norm in (0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25])
def test_conjugate_is_an_order2_automorphism(q):
    """Exhaustive on every quadratic extension with q^2 <= 625."""
    K = field_create(q * q)
    add, mul = np.array(K.add), np.array(K.mul)
    conj = np.ones(q * q, dtype=np.int64)
    for _ in range(q):
        conj = mul[conj, np.arange(q * q)]
    assert (conj[conj] == np.arange(q * q)).all()
    assert (conj == np.arange(q * q)).sum() == q
    assert (conj[add] == add[np.ix_(conj, conj)]).all()
    assert (conj[mul] == mul[np.ix_(conj, conj)]).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_is_surjective_onto_base_field(q):
    """x^(q+1) maps GF(q^2) onto the fixed field of x -> x^q, which is
    what hermitian_unital relies on."""
    K = field_create(q * q)
    norms = {_power(K, a, q + 1) for a in range(q * q)}
    base = {a for a in range(q * q) if _power(K, a, q) == a}
    assert norms == base
    assert len(base) == q


# --- exhaustive field axioms ---

def _poly_mul_mod(a, b, irr, p):
    """Independent oracle: schoolbook multiply then long-divide."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(irr) - 1
    while len(out) > deg:
        lead = out.pop()
        if lead:
            for k in range(deg):
                out[-deg + k] = (out[-deg + k] - lead * irr[k]) % p
    return tuple(out + [0] * (deg - len(out)))


def _check_axioms(add, mul):
    o = add.shape[0]
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == np.arange(o)).all() and (mul[1] == np.arange(o)).all()
    # no zero divisors: every nonzero row of mul is a permutation
    assert (np.sort(mul[1:], axis=1) == np.arange(o)).all()
    for a in range(o):
        assert (add[add[a]] == add[a][add]).all(), f"add not associative at {a}"
        assert (mul[mul[a]] == mul[a][mul]).all(), f"mul not associative at {a}"
        assert (mul[a][add] == add[np.ix_(mul[a], mul[a])]).all(), \
            f"distributivity fails at {a}"


@pytest.mark.parametrize("order", EXTENSION_ORDERS_625)
def test_extension_field_axioms_exhaustive(order):
    """add is digit-wise addition mod p, mul agrees with the polynomial
    oracle on every product a * x^k, and the axioms hold. Distributivity
    then pins every other product, since each b is a sum of the x^k."""
    p, e = prime_power(order)
    F = field_create(order)
    add, mul = np.array(F.add), np.array(F.mul)
    digits = np.arange(order)[:, None] // p ** np.arange(e) % p
    weights = p ** np.arange(e)
    assert (add == ((digits[:, None, :] + digits[None, :, :]) % p) @ weights).all()
    irr = least_irreducible(p, e)
    for k in range(e):
        x_k = tuple(int(k == i) for i in range(e))
        for a in range(order):
            want = _poly_mul_mod(tuple(digits[a]), x_k, irr, p)
            assert mul[a, p**k] == np.dot(want, weights), (a, k)
    _check_axioms(add, mul)


@pytest.mark.parametrize("p", PRIMES_625)
def test_prime_field_tables_match_integer_arithmetic(p):
    """Tables of GF(p) must be integer mod-p arithmetic exactly; the
    axioms then follow from the ring axioms of the integers."""
    F = field_create(p)
    idx = np.arange(p)
    assert (np.array(F.add) == (idx[:, None] + idx[None, :]) % p).all()
    assert (np.array(F.mul) == (idx[:, None] * idx[None, :]) % p).all()
