"""Independent oracle implementations used by the tests.

Everything here is deliberately written along a different route than the
package code: series instead of erfc, ancestor-chain walks instead of
descendant counts, dense covariance matrices instead of aggregated sums.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


def phi_series(z: float) -> float:
    """Standard normal CDF by the Taylor series
    Phi(z) = 1/2 + phi(z) * sum z^(2k+1) / (1*3*...*(2k+1))."""
    if z < -9.0:
        return 1.0 - phi_series(-z)
    term = z
    total = z
    k = 0
    while abs(term) > 1e-20 * max(1.0, abs(total)):
        k += 1
        term *= z * z / (2 * k + 1)
        total += term
        if k > 10_000:
            raise RuntimeError("series did not converge")
    return 0.5 + total * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def harmonic_fraction(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def true_two_normal_dk(m: float, tau2: float, mu: float, sigma2: float) -> float:
    """Exact Kolmogorov distance between N(m, tau2) and N(mu, sigma2).

    The CDF difference is extremal where the densities cross; the crossings
    solve a quadratic. A dense grid scan backs up the root computation.
    """
    s, t = math.sqrt(sigma2), math.sqrt(tau2)

    def gap(x: float) -> float:
        return abs(_cdf((x - mu) / s) - _cdf((x - m) / t))

    candidates = []
    if abs(sigma2 - tau2) < 1e-14 * max(sigma2, tau2):
        if m != mu:
            candidates.append(0.5 * (m + mu))
    else:
        a = 1.0 / tau2 - 1.0 / sigma2
        b = 2.0 * mu / sigma2 - 2.0 * m / tau2
        c = m * m / tau2 - mu * mu / sigma2 - math.log(sigma2 / tau2)
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            candidates.extend([(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)])
    lo = min(m - 8.0 * t, mu - 8.0 * s)
    hi = max(m + 8.0 * t, mu + 8.0 * s)
    grid = np.linspace(lo, hi, 4001)
    best = max(gap(x) for x in grid)
    for x in candidates:
        best = max(best, gap(x))
    return best


def true_two_normal_dw(m: float, tau2: float, mu: float, sigma2: float) -> float:
    """Exact Wasserstein distance between two one-dimensional normals:
    the comonotone coupling gives E|c + dZ| with c = mu - m, d = sigma - tau."""
    c = mu - m
    d = math.sqrt(sigma2) - math.sqrt(tau2)
    if d == 0.0:
        return abs(c)
    r = c / abs(d)
    return c * (2.0 * _cdf(r) - 1.0) + 2.0 * abs(d) * _phi(r)


def kappa_second_derivative(x: float, sigma2: float) -> float:
    """Closed-form second derivative of the variance penalty in x,
    derived by hand: (3/4) sigma^3 (sigma2 + x)^(-7/2) (9 sigma2 - x)."""
    sigma = math.sqrt(sigma2)
    return 0.75 * sigma ** 3 * (sigma2 + x) ** -3.5 * (9.0 * sigma2 - x)


# ---------------------------------------------------------------------------
# tree oracles via ancestor chains

def _replay(tree) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Returns (final alive ids, parent id map, id -> event where it split)."""
    n = tree.n
    alive = [0] * n
    parent: dict[int, int] = {}
    split_event: dict[int, int] = {}
    for k in range(1, n):
        j = int(tree.splits[k - 1])
        pid = alive[j]
        split_event[pid] = k
        parent[2 * k - 1] = pid
        parent[2 * k] = pid
        alive[j] = 2 * k - 1
        alive[k] = 2 * k
    return alive, parent, split_event


def _ancestor_chains(tree) -> tuple[list[list[int]], dict[int, int]]:
    alive, parent, split_event = _replay(tree)
    chains = []
    for lineage in alive:
        chain = [lineage]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chains.append(chain)
    return chains, split_event


def daughter_counts_by_chains(splits) -> np.ndarray:
    """Daughter tip counts of one tree from its splits: every lineage id is
    counted once per tip whose ancestor chain passes through it."""
    n = len(splits) + 1
    chains, _ = _ancestor_chains(SimpleNamespace(n=n, splits=splits))
    hits = Counter(node for chain in chains for node in chain)
    return np.array([[hits[2 * k - 1], hits[2 * k]] for k in range(1, n)],
                    dtype=np.int64).reshape(n - 1, 2)


def mrca_pair_ages(tree) -> np.ndarray:
    """Pairwise coalescence ages found by walking ancestor chains upward."""
    n = tree.n
    chains, split_event = _ancestor_chains(tree)
    chain_sets = [set(c) for c in chains]
    ages = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for node in chains[j]:
                if node in chain_sets[i]:
                    k = split_event[node]
                    ages[i, j] = ages[j, i] = tree.coalescence_ages[k - 1]
                    break
            else:
                raise AssertionError("no common ancestor found")
    return ages


def cov_matrix_cond_var(tree, params, jumps=None) -> float:
    """Conditional variance of the tip average via the dense conditional
    covariance matrix of the normalized tips."""
    n = tree.n
    a = params.alpha
    height_term = math.exp(-2.0 * a * tree.height)
    cov = np.exp(-2.0 * a * mrca_pair_ages(tree)) - height_term
    np.fill_diagonal(cov, 1.0 - height_term)
    if jumps is not None:
        chains, split_event = _ancestor_chains(tree)
        for k in range(1, n):
            for slot, daughter in enumerate((2 * k - 1, 2 * k)):
                if not jumps.flags[k - 1, slot]:
                    continue
                tips = [i for i, chain in enumerate(chains) if daughter in chain]
                add = (2.0 * a / params.sigma_a2) * jumps.variances[k - 1] \
                    * math.exp(-2.0 * a * tree.coalescence_ages[k - 1])
                for i in tips:
                    for j in tips:
                        cov[i, j] += add
    return float(cov.sum()) / (n * n)
