import pytest

from modforms.arith import (
    divisors,
    factorize,
    is_probable_prime,
    quad_field_discriminant,
    sigma,
    squarefree_kernel,
)


@pytest.mark.parametrize("p", [2, 3, 691, 144169, 2294797, 305065927])
def test_is_probable_prime_true(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", [1, 4, 18209, 691 * 691, 131 * 139])
def test_is_probable_prime_false(n):
    assert not is_probable_prime(n)


def test_factorize_small():
    f = factorize(83041344)
    assert f.complete
    assert f.factors == {2: 6, 3: 2, 144169: 1}


def test_factorize_reconstructs():
    for n in [2, 97, 1001, 2**20, 3_628_800, 18209, 10538201664]:
        f = factorize(n)
        assert f.complete
        prod = f.cofactor
        for p, e in f.factors.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_and_sigma():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert sigma(11, 2) == 1 + 2**11
    assert sigma(3, 2) == 9
    assert sigma(0, 36) == 9


def test_squarefree_kernel():
    assert squarefree_kernel(83041344)[:2] == (144169, 24)
    assert squarefree_kernel(4)[:2] == (1, 2)
    assert squarefree_kernel(5)[:2] == (5, 1)
    s = squarefree_kernel(-18)
    assert (s.squarefree, s.square_root) == (-2, 3)
    assert s.squarefree * s.square_root**2 == -18
    with pytest.raises(ValueError):
        squarefree_kernel(0)


def test_quad_field_discriminant():
    assert quad_field_discriminant(144169) == 144169  # 144169 = 1 mod 4
    assert quad_field_discriminant(18209) == 18209  # 131*139 = 1 mod 4
    assert quad_field_discriminant(2) == 8
    assert quad_field_discriminant(-1) == -4
    assert quad_field_discriminant(5) == 5
    with pytest.raises(ValueError):
        quad_field_discriminant(1)
    with pytest.raises(ValueError):
        quad_field_discriminant(12)  # not squarefree
