from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexar.stats import chi2_sf, cochran_q, holm_adjust, mcnemar, sample_variance

# ---------------------------------------------------------------------------
# independent oracles (kept deliberately separate from the implementation)
# ---------------------------------------------------------------------------


def oracle_cochran_q(matrix):
    """Direct textbook formula, written independently of stats.cochran_q."""
    n = len(matrix)
    k = len(matrix[0])
    col = [sum(matrix[i][j] for i in range(n)) for j in range(k)]
    row = [sum(matrix[i]) for i in range(n)]
    total = sum(row)
    denominator = k * total - sum(r**2 for r in row)
    if denominator == 0:
        return 0.0
    return (k - 1) * (k * sum(c**2 for c in col) - total**2) / denominator


def oracle_mcnemar_exact(b, c):
    """Two-sided exact binomial p via exact rational arithmetic."""
    n = b + c
    m = min(b, c)
    tail = sum(Fraction(math.comb(n, i)) for i in range(m + 1))
    p = 2 * tail / Fraction(2) ** n
    return float(min(p, Fraction(1)))


def oracle_holm(pvalues):
    """Max-scan over sorted p-values, independent implementation."""
    m = len(pvalues)
    indexed = sorted(enumerate(pvalues), key=lambda item: item[1])
    out = [0.0] * m
    for rank, (original, p) in enumerate(indexed, start=1):
        candidates = []
        for j in range(1, rank + 1):
            pj = indexed[j - 1][1]
            candidates.append(min(1.0, (m - j + 1) * pj))
        out[original] = max(candidates)
    return out


FIXTURE_MATRICES = [
    [[1, 1, 0], [1, 0, 0], [1, 1, 1], [0, 1, 0]],
    [[1, 0], [1, 0], [1, 0], [1, 0], [0, 1]],
    [[1, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1], [0, 0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
    [[1, 1], [0, 0], [1, 0], [0, 1], [1, 1], [1, 0], [1, 0]],
    [[0, 1, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1], [1, 1, 1], [0, 1, 1]],
]


def test_cochran_q_hand_computed_fixture():
    # column totals 3,3,1; row totals 2,1,3,1 -> Q = 2*(3*19-49)/(21-15) = 8/3
    q, df, p = cochran_q(FIXTURE_MATRICES[0])
    assert df == 2
    assert q == pytest.approx(8.0 / 3.0, abs=1e-12)
    # at df=2 the survival function is exp(-Q/2)
    assert p == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("matrix", FIXTURE_MATRICES)
def test_cochran_q_matches_direct_formula_oracle(matrix):
    q, df, p = cochran_q(matrix)
    assert df == len(matrix[0]) - 1
    assert q == pytest.approx(oracle_cochran_q(matrix), abs=1e-9)
    assert 0.0 <= p <= 1.0


def test_cochran_q_identical_columns_is_null():
    matrix = [[1, 1, 1], [0, 0, 0], [1, 1, 1], [1, 1, 1]]
    q, df, p = cochran_q(matrix)
    assert (q, df, p) == (0.0, 2, 1.0)


def test_cochran_q_rejects_bad_input():
    with pytest.raises(ValueError):
        cochran_q([[0, 2]])
    with pytest.raises(ValueError):
        cochran_q([[1]])
    with pytest.raises(ValueError):
        cochran_q([])
    with pytest.raises(ValueError):
        cochran_q([[1, 0], [1]])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=5),
        min_size=2,
        max_size=15,
    ).filter(lambda m: len({len(r) for r in m}) == 1)
)
def test_cochran_q_matches_oracle_on_random_matrices(matrix):
    q, df, _ = cochran_q(matrix)
    assert df == len(matrix[0]) - 1
    assert q == pytest.approx(oracle_cochran_q(matrix), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
        min_size=2,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_cochran_q_invariant_under_permutations(matrix, rng):
    q, _, p = cochran_q(matrix)
    rows = matrix[:]
    rng.shuffle(rows)
    order = [0, 1, 2]
    rng.shuffle(order)
    permuted = [[row[j] for j in order] for row in rows]
    q2, _, p2 = cochran_q(permuted)
    assert q2 == pytest.approx(q, abs=1e-9)
    assert p2 == pytest.approx(p, abs=1e-12)


# -- chi-square survival ----------------------------------------------------


def test_chi2_sf_matches_quadrature_oracle():
    from scipy import integrate

    for df in (1, 2, 3):
        for x in (0.1, 1.0, 5.0, 10.0, 60.0):
            def pdf(t, df=df):
                return (
                    t ** (df / 2 - 1)
                    * math.exp(-t / 2)
                    / (2 ** (df / 2) * math.gamma(df / 2))
                )
            expected, _ = integrate.quad(pdf, x, math.inf, limit=200)
            assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-8)


def test_chi2_sf_at_reported_omnibus_statistic():
    assert chi2_sf(60.04, 2) < 0.001


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 2) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


# -- McNemar -----------------------------------------------------------------


def _pairs(b, c, concordant=5):
    rows = [[1, 1]] * concordant
    rows += [[1, 0]] * b
    rows += [[0, 1]] * c
    return rows


def test_mcnemar_exact_matches_binomial_oracle_for_all_small_counts():
    for b in range(0, 25):
        for c in range(0, 25 - b):
            if b + c == 0:
                continue
            _, p = mcnemar(_pairs(b, c))
            assert p == pytest.approx(oracle_mcnemar_exact(b, c), abs=1e-12), (b, c)


def test_mcnemar_balanced_discordance_gives_p_one():
    for b in (1, 3, 7, 11):
        _, p = mcnemar(_pairs(b, b))
        assert p == pytest.approx(1.0, abs=1e-12)


def test_mcnemar_three_one_fixture():
    # 2 * (C(4,0) + C(4,1)) / 2^4 = 0.625
    stat, p = mcnemar(_pairs(3, 1))
    assert stat == 1.0
    assert p == pytest.approx(0.625, abs=1e-15)


def test_mcnemar_all_concordant():
    stat, p = mcnemar([[1, 1], [0, 0], [1, 1]])
    assert (stat, p) == (0.0, 1.0)


def test_mcnemar_large_counts_use_continuity_corrected_chi_square():
    stat, p = mcnemar(_pairs(20, 10))
    assert stat == pytest.approx((abs(20 - 10) - 1) ** 2 / 30.0, abs=1e-12)
    assert p == pytest.approx(chi2_sf(stat, 1), abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_mcnemar_is_symmetric_in_method_order(b, c):
    _, p_ab = mcnemar(_pairs(b, c))
    _, p_ba = mcnemar(_pairs(c, b))
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_mcnemar_rejects_bad_rows():
    with pytest.raises(ValueError):
        mcnemar([[1, 0, 1]])
    with pytest.raises(ValueError):
        mcnemar([[2, 0]])


# -- Holm --------------------------------------------------------------------


def test_holm_hand_computed_fixture():
    assert holm_adjust([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06], abs=1e-15)


def test_holm_trivial_cases():
    assert holm_adjust([1.0, 1.0]) == [1.0, 1.0]
    assert holm_adjust([0.2]) == [0.2]
    assert holm_adjust([]) == []


def test_holm_matches_max_scan_oracle_on_random_vectors():
    rng = random.Random(1234)
    for _ in range(100):
        m = rng.randint(1, 8)
        pvalues = [round(rng.random(), 6) for _ in range(m)]
        assert holm_adjust(pvalues) == pytest.approx(oracle_holm(pvalues), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
def test_holm_dominates_raw_and_is_monotone(pvalues):
    adjusted = holm_adjust(pvalues)
    assert all(a >= p - 1e-15 for a, p in zip(adjusted, pvalues))
    assert all(0.0 <= a <= 1.0 for a in adjusted)
    paired = sorted(zip(pvalues, adjusted))
    resorted = [a for _, a in paired]
    assert all(x <= y + 1e-15 for x, y in zip(resorted, resorted[1:]))


def test_holm_rejects_out_of_range():
    with pytest.raises(ValueError):
        holm_adjust([0.5, 1.5])


def test_sample_variance_matches_statistics_variance():
    assert sample_variance([]) == 0.0
    assert sample_variance([3.5]) == 0.0
    assert sample_variance([1.0, 1.0, 1.0]) == 0.0
    assert sample_variance([0, 1, 1, 0]) == pytest.approx(1 / 3, abs=1e-15)
    rng = random.Random(11)
    for _ in range(50):
        values = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(2, 15))]
        assert sample_variance(values) == pytest.approx(statistics.variance(values), rel=1e-12)
