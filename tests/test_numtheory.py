import numpy as np
import pytest

from wglab.errors import InputError
from wglab.numtheory import (
    _dense_sieve,
    divisor_count,
    euler_phi,
    factorize,
    int_kth_root,
    mobius,
    sieve_primes,
    units,
)

LIMIT = 10_000


def _phi_table(limit):
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _mobius_table(limit):
    mu = np.ones(limit + 1, dtype=np.int64)
    prime = np.ones(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if prime[p]:
            prime[2 * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def _tau_table(limit):
    tau = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        tau[d::d] += 1
    return tau


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        if all(m % d for d in range(2, int(m**0.5) + 1)):
            out.append(m)
    return out


def test_sieve_examples():
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(10).tolist() == trial_division_primes(10)
    assert sieve_primes(30).tolist() == trial_division_primes(30)
    assert sieve_primes(30).dtype == np.int64


def test_sieve_rejects_tiny_limit():
    with pytest.raises(InputError):
        sieve_primes(1)


def test_sieve_matches_trial_division():
    assert sieve_primes(500).tolist() == trial_division_primes(500)


def test_segmented_sieve_matches_dense():
    limit = 10_000_050
    seg = sieve_primes(limit)
    dense = _dense_sieve(limit)
    assert np.array_equal(seg, dense)


@pytest.mark.parametrize(
    "m,phi,mu,tau",
    [(1, 1, 1, 1), (12, 4, 0, 6), (30, 8, -1, 8), (97, 96, -1, 2)],
)
def test_multiplicative_function_values(m, phi, mu, tau):
    assert euler_phi(m) == phi
    assert mobius(m) == mu
    assert divisor_count(m) == tau


def test_mobius_30():
    assert mobius(30) == -1


@pytest.mark.parametrize("fn", [euler_phi, mobius, divisor_count, factorize])
def test_input_validation(fn):
    with pytest.raises(InputError):
        fn(0)


def test_tables_agree_with_pointwise():
    phi, mu, tau = _phi_table(200), _mobius_table(200), _tau_table(200)
    for m in range(1, 201):
        assert euler_phi(m) == phi[m]
        assert mobius(m) == mu[m]
        assert divisor_count(m) == tau[m]


def test_multiplicativity_on_coprime_pairs():
    phi, mu, tau = _phi_table(LIMIT), _mobius_table(LIMIT), _tau_table(LIMIT)
    for a in range(2, LIMIT):
        for b in range(a, LIMIT // a + 1):
            if np.gcd(a, b) != 1:
                continue
            ab = a * b
            assert phi[ab] == phi[a] * phi[b]
            assert mu[ab] == mu[a] * mu[b]
            assert tau[ab] == tau[a] * tau[b]


def test_divisor_sums():
    phi, mu = _phi_table(LIMIT), _mobius_table(LIMIT)
    phi_sum = np.zeros(LIMIT + 1, dtype=np.int64)
    mu_sum = np.zeros(LIMIT + 1, dtype=np.int64)
    for d in range(1, LIMIT + 1):
        phi_sum[d::d] += phi[d]
        mu_sum[d::d] += mu[d]
    m = np.arange(1, LIMIT + 1)
    assert np.array_equal(phi_sum[1:], m)
    assert mu_sum[1] == 1
    assert not mu_sum[2:].any()


def test_units_examples():
    assert units(1).tolist() == [0]
    assert units(8).tolist() == [1, 3, 5, 7]
    assert units(7).tolist() == [1, 2, 3, 4, 5, 6]


def test_units_are_shared_and_read_only():
    assert units(12) is units(12)
    with pytest.raises(ValueError):
        units(12)[0] = 5
    with pytest.raises(ValueError):
        units(1)[0] = 5


def test_units_cardinality_is_phi():
    phi = _phi_table(LIMIT)
    for q in range(1, LIMIT + 1, 37):  # arithmetic sample through the range
        assert len(units(q)) == phi[q]
    assert len(units(LIMIT)) == phi[LIMIT]


def test_int_kth_root():
    assert int_kth_root(77, 2) == 8
    assert int_kth_root(27, 3) == 3
    assert int_kth_root(26, 3) == 2
    for x in (0, 1, 63, 64, 65, 10**12):
        for k in (2, 3, 5):
            r = int_kth_root(x, k)
            assert r**k <= x < (r + 1) ** k
