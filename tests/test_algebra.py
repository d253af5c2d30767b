"""Field arithmetic: worked examples, automorphism facts, exhaustive axioms."""

import numpy as np
import pytest

from unitals.algebra import (
    FieldSpec,
    field_create,
    is_prime,
    prime_power,
    quadratic_extension,
)
from unitals.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    NotPrimePower,
    NotQuadraticExtension,
    TooLarge,
)

PRIMES_625 = [p for p in range(2, 626) if is_prime(p)]
EXTENSION_ORDERS_625 = sorted(
    p**e for p in PRIMES_625 for e in range(2, 10) if p**e <= 625)


def test_create_prime_field():
    F = field_create(3, 1)
    assert F.order == 3
    assert F.irreducible == (0, 1)  # the polynomial x


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
    F = field_create(3, 2)
    assert F.irreducible == expected == (1, 0, 1)


def test_create_rejects_composite_characteristic():
    with pytest.raises(CompositeCharacteristic):
        field_create(4, 1)


def test_create_rejects_oversized_field():
    with pytest.raises(TooLarge):
        field_create(2, 17)


def test_gf9_inverse_law():
    F = field_create(3, 2)
    for a in range(1, F.order):
        assert F.mul_idx(a, F.pow_idx(a, -1)) == 1


def test_gf4_multiplicative_group_order():
    F = field_create(2, 2)
    for g in range(2, F.order):
        assert F.pow_idx(g, 3) == 1
        assert F.pow_idx(g, 2) != 1


def test_gf9_frobenius_fixes_field():
    F = field_create(3, 2)
    for a in range(F.order):
        assert F.pow_idx(a, 9) == a


def test_division_by_zero():
    F = field_create(5, 1)
    with pytest.raises(DivisionByZero):
        F.pow_idx(0, -1)
    with pytest.raises(DivisionByZero):
        F.pow_idx(0, -2)


def test_negative_powers():
    F = field_create(7, 1)
    a = 3
    inv = F.pow_idx(a, -1)
    assert inv == pow(a, -1, 7)  # GF(7) encodings are the integers mod 7
    assert F.pow_idx(a, -2) == F.pow_idx(F.mul_idx(a, a), -1) == F.mul_idx(inv, inv)


# --- conjugation ---

def test_conjugate_is_involution_gf9():
    K = quadratic_extension(3)
    for a in range(K.order):
        assert K.conj_idx(a) == K.pow_idx(a, 3)
        assert K.conj_idx(K.conj_idx(a)) == a


def test_conjugate_fixed_field_size():
    K = quadratic_extension(3)
    assert sum(1 for a in range(K.order) if K.conj_idx(a) == a) == 3


def test_gf4_norm_lands_in_subfield():
    K = quadratic_extension(2)
    for a in range(K.order):
        assert K.conj_idx(a) == K.pow_idx(a, 2)
        norm = K.mul_idx(a, K.conj_idx(a))
        assert K.conj_idx(norm) == norm  # fixed by the automorphism
        assert norm in (0, 1)


def test_conjugate_requires_tag():
    F = field_create(3, 2)  # same field as GF(9) but untagged
    with pytest.raises(NotQuadraticExtension):
        F.conj_idx(1)


def test_quadratic_extension_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        quadratic_extension(6)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25])
def test_conjugate_is_an_order2_automorphism(q):
    """Exhaustive on every quadratic extension with q^2 <= 625."""
    K = quadratic_extension(q)
    o = K.order
    conj = [K.conj_idx(a) for a in range(o)]
    assert all(conj[conj[a]] == a for a in range(o))
    assert sum(1 for a in range(o) if conj[a] == a) == q
    for a in range(o):
        for b in range(o):
            assert conj[K.add_idx(a, b)] == K.add_idx(conj[a], conj[b])
            assert conj[K.mul_idx(a, b)] == K.mul_idx(conj[a], conj[b])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_is_surjective_onto_base_field(q):
    K = quadratic_extension(q)
    norms = {K.mul_idx(a, K.conj_idx(a)) for a in range(K.order)}
    base = {a for a in range(K.order) if K.conj_idx(a) == a}
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


def _tables(spec: FieldSpec):
    """Full numpy add/mul tables; the exp chain is re-verified against an
    independent polynomial-arithmetic oracle first."""
    o, p, e = spec.order, spec.p, spec.e
    digits = np.array(spec._digits, dtype=np.int64)
    g = spec._exp[1] if o > 2 else 1
    for i in range(o - 2):
        want = _poly_mul_mod(spec._digits[spec._exp[i]],
                             spec._digits[g], spec.irreducible, p)
        assert spec._digits[spec._exp[i + 1]] == want, "exp chain broken"
    assert sorted(spec._exp) == list(range(1, o)), "exp not a bijection onto nonzero"
    weights = p ** np.arange(e, dtype=np.int64)
    add = (((digits[:, None, :] + digits[None, :, :]) % p) * weights).sum(axis=2)
    log = np.array([0] + [spec._log[i] for i in range(1, o)], dtype=np.int64)
    exp = np.array(spec._exp, dtype=np.int64)
    mul = exp[(log[:, None] + log[None, :]) % (o - 1)]
    mul[0, :] = 0
    mul[:, 0] = 0
    return add, mul


def _check_axioms(add, mul):
    o = add.shape[0]
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == np.arange(o)).all() and (mul[1] == np.arange(o)).all()
    for a in range(o):
        assert (add[add[a]] == add[a][add]).all(), f"add not associative at {a}"
        assert (mul[mul[a]] == mul[a][mul]).all(), f"mul not associative at {a}"
        assert (mul[a][add] == add[np.ix_(mul[a], mul[a])]).all(), \
            f"distributivity fails at {a}"


@pytest.mark.parametrize("order", EXTENSION_ORDERS_625)
def test_extension_field_axioms_exhaustive(order):
    p, e = prime_power(order)
    spec = field_create(p, e)
    add, mul = _tables(spec)
    # tables agree with element-level arithmetic on a deterministic slice
    step = max(1, order // 23)
    for a in range(0, order, step):
        for b in range(0, order, step):
            assert add[a, b] == spec.add_idx(a, b)
            assert mul[a, b] == spec.mul_idx(a, b)
    _check_axioms(add, mul)


@pytest.mark.parametrize("p", PRIMES_625)
def test_prime_field_tables_match_integer_arithmetic(p):
    """Tables of GF(p) must be integer mod-p arithmetic exactly; the
    axioms then follow from the ring axioms of the integers."""
    spec = field_create(p, 1)
    add, mul = _tables(spec)
    idx = np.arange(p, dtype=np.int64)
    assert (add == (idx[:, None] + idx[None, :]) % p).all()
    assert (mul == (idx[:, None] * idx[None, :]) % p).all()
