"""Crossmatch statistic, exact null distribution, and both matchers.

Oracles: the null PMF is compared against direct enumeration of label
assignments over a fixed perfect matching; the optimal matcher against
exhaustive search over all perfect matchings, against the dense integer
program of matching_oracle (same pairs), and against an independent blossom
implementation from networkx on larger instances (same total); the greedy
matcher against a from-scratch replay of its documented tie-break contract.
p-values below the smallest positive double are checked against exact
rational tails.
"""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from gibbsmatch import cli, crossmatch, harness
from gibbsmatch.crossmatch import (P_FLOOR, CrossmatchOutcome, DistanceMatrix, Matching,
                                   cross_count, crossmatch_test, greedy_matching,
                                   null_pmf, optimal_matching, p_value, pairwise_distances)
from gibbsmatch.rbm import ChainSettings, SampleBatch
from gibbsmatch.rng import derive_rng
from matching_oracle import milp_pairs


def random_bits(seed, rows, cols, p=0.5):
    return (derive_rng(seed, 0).random((rows, cols)) < p).astype(np.uint8)


def all_perfect_matchings(indices):
    """Every perfect matching of an even index list (recursive pairing)."""
    if not indices:
        yield []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        rest = indices[1:k] + indices[k + 1:]
        for tail in all_perfect_matchings(rest):
            yield [(first, indices[k])] + tail


# --- hamming distances ---------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=200))
@hyp_settings(max_examples=40)
def test_hamming_matches_naive(seed, length):
    rng = derive_rng(seed)
    a = (rng.random((1, length)) < 0.5).astype(np.uint8)
    b = (rng.random((1, length)) < 0.5).astype(np.uint8)
    assert pairwise_distances(a, b).entries[0, 1] == int((a != b).sum())


def test_pairwise_distances_matches_loops():
    X = random_bits(3, 5, 11)
    Y = random_bits(4, 5, 11)
    D = pairwise_distances(X, Y)
    pooled = np.vstack([X, Y])
    for i in range(10):
        for j in range(10):
            assert D.entries[i, j] == int((pooled[i] != pooled[j]).sum())


def test_pairwise_distances_match_unpacked_bits_across_tiles():
    # 600 pooled rows span two row tiles; 37 bits is not a whole number of bytes
    X = random_bits(13, 300, 37)
    Y = random_bits(14, 300, 37, p=0.2)
    D = pairwise_distances(X, Y)
    pooled = np.vstack([X, Y])
    assert D.entries.dtype == np.int64
    np.testing.assert_array_equal(D.entries, (pooled[:, None, :] != pooled[None, :, :]).sum(axis=2))


def test_pairwise_distances_structure():
    X = random_bits(7, 6, 16)
    D = pairwise_distances(X, X)
    assert D.n == 6 and D.size == 12
    # identical groups: row i of X is row n+i of the pool
    for i in range(6):
        assert D.entries[i, 6 + i] == 0
    np.testing.assert_array_equal(D.entries, D.entries.T)
    assert not np.diagonal(D.entries).any()


def test_pairwise_distances_input_checks():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((3, 4), dtype=np.uint8), np.zeros((3, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((3, 4), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        pairwise_distances(np.full((2, 4), 2), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("value", [0.5, 1.2, 256, float("nan")])
def test_non_bit_values_are_rejected_before_the_cast(value):
    # a uint8 cast would truncate 0.5 and 1.2 and wrap 256 to a valid bit
    rows = np.array([[value, 0], [1, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        crossmatch_test(rows, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="0 or 1"):
        pairwise_distances(np.zeros((2, 2)), rows)
    with pytest.raises(ValueError, match="0 or 1"):
        SampleBatch(samples=rows, sampler_id="x", seed=0, settings=ChainSettings(n_samples=2))


def test_pairwise_distances_accepts_sample_batches():
    cs = ChainSettings(n_samples=4)
    a = SampleBatch(samples=random_bits(1, 4, 8), sampler_id="x", seed=1, settings=cs)
    b = SampleBatch(samples=random_bits(2, 4, 8), sampler_id="y", seed=2, settings=cs)
    assert pairwise_distances(a, b).n == 4


def test_distance_matrix_validation():
    good = np.array([[0, 1], [1, 0]])
    DistanceMatrix(entries=good, n=1)
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.zeros((3, 2)), n=1)
    with pytest.raises(ValueError):
        DistanceMatrix(entries=good, n=2)
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.array([[0, -1], [-1, 0]]), n=1)
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.array([[1, 1], [1, 0]]), n=1)
    with pytest.raises(ValueError):
        DistanceMatrix(entries=np.array([[0, 2], [1, 0]]), n=1)


# --- null distribution ----------------------------------------------------------

def enumerated_null(n):
    """Label-assignment enumeration: fix the matching (0,1),(2,3),..., choose
    which n of the 2n points belong to the first group, count cross pairs."""
    counts = [0] * (n + 1)
    total = 0
    for picked in itertools.combinations(range(2 * n), n):
        first = set(picked)
        a = sum(1 for k in range(n) if (2 * k in first) != (2 * k + 1 in first))
        counts[a] += 1
        total += 1
    return [c / total for c in counts]


def test_null_pmf_matches_enumeration():
    for n in range(1, 5):
        want = enumerated_null(n)
        got = null_pmf(n)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_null_pmf_small_cases():
    np.testing.assert_allclose(null_pmf(1), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(null_pmf(2), [1 / 3, 0.0, 2 / 3], atol=1e-15)


def test_null_pmf_frozen_point():
    # lower-tail mass of a perfect separation at n=10
    assert null_pmf(10)[0] == pytest.approx(0.0013639611162830976, abs=1e-16)


def test_null_pmf_parity_zeros():
    f = null_pmf(7)
    assert f[0] == 0.0 and f[2] == 0.0 and f[6] == 0.0
    assert (f[1::2] > 0).all()


def test_null_pmf_normalization():
    for n in (1, 2, 3, 5, 10, 50, 137, 500):
        assert abs(null_pmf(n).sum() - 1.0) < 1e-12


def test_null_pmf_rejects_bad_n():
    with pytest.raises(ValueError):
        null_pmf(0)


def test_null_mean_p_reference():
    # E[F(A)] at n=50 exceeds 1/2 because the statistic is discrete; the
    # reference value is exact (computed in rational arithmetic)
    f = null_pmf(50)
    mean_p = float((f * np.cumsum(f)).sum())
    assert mean_p == pytest.approx(0.5791882950743412, abs=1e-12)


def test_p_value_basics():
    assert p_value(2, 2) == 1.0
    assert p_value(0, 2) == pytest.approx(1 / 3, abs=1e-15)
    assert p_value(50, 50) == 1.0
    with pytest.raises(ValueError):
        p_value(-1, 4)
    with pytest.raises(ValueError):
        p_value(5, 4)


def exact_tail(a_obs, n):
    """F(a_obs) as a rational: f(a) = 2^a n! / (((n-a)/2)!^2 a!) / C(2n, n),
    whose numerator is 2^a times a multinomial coefficient, an integer."""
    fact = math.factorial
    num = sum(2**a * (fact(n) // (fact((n - a) // 2) ** 2 * fact(a)))
              for a in range(n % 2, a_obs + 1, 2))
    return Fraction(num, math.comb(2 * n, n))


def log10_exact(q: Fraction) -> float:
    return math.log10(q.numerator) - math.log10(q.denominator)


@pytest.mark.parametrize("n,a_obs", [(1100, 0), (1100, 2), (5000, 0), (5000, 1000)])
def test_p_value_below_the_double_floor_reads_the_floor_and_its_exact_log(n, a_obs):
    tail = exact_tail(a_obs, n)
    assert tail < P_FLOOR
    p, log10_p = crossmatch._tail(a_obs, n)
    assert p_value(a_obs, n) == p == P_FLOOR
    assert log10_p == pytest.approx(log10_exact(tail), rel=1e-13)


@pytest.mark.parametrize("n,a_obs", [(1100, 4), (1100, 6), (1100, 40)])
def test_representable_p_value_keeps_its_expression_and_has_no_log(n, a_obs):
    # a_obs 4 and 6 at n 1100 are subnormal tails that p_value has always returned
    cdf = np.cumsum(null_pmf(n))
    assert p_value(a_obs, n) == float(cdf[a_obs] / cdf[-1]) > 0
    assert p_value(a_obs, n) == pytest.approx(float(exact_tail(a_obs, n)),
                                              rel=1e-9 if a_obs > 6 else 1e-2)
    assert crossmatch._tail(a_obs, n)[1] is None


def test_an_empty_tail_is_zero():
    # below the smallest cross count of n's parity, F is exactly 0, as before
    assert p_value(0, 1) == p_value(0, 1081) == 0.0
    assert crossmatch._tail(0, 1081)[1] is None


@given(st.integers(min_value=1, max_value=80))
@hyp_settings(max_examples=30)
def test_p_value_monotone_in_a(n):
    ps = [p_value(a, n) for a in range(n + 1)]
    assert all(ps[i] <= ps[i + 1] + 1e-15 for i in range(n))
    assert ps[-1] == 1.0


# --- matchings -------------------------------------------------------------------

def test_optimal_matches_exhaustive_search():
    checked = 0
    for n in (2, 3, 4, 5):
        for rep in range(10):
            X = random_bits(100 * n + rep, n, 8)
            Y = random_bits(200 * n + rep, n, 8, p=0.3)
            D = pairwise_distances(X, Y)
            best = min(sum(int(D.entries[i, j]) for i, j in m)
                       for m in all_perfect_matchings(list(range(2 * n))))
            got = optimal_matching(D, tie_seed=rep)
            assert got.total_cost == best
            assert sum(int(D.entries[i, j]) for i, j in got.pairs) == best
            checked += 1
    assert checked == 40


def test_optimal_is_stable_under_tie_seed_for_cost():
    X = random_bits(5, 6, 10)
    Y = random_bits(6, 6, 10)
    D = pairwise_distances(X, Y)
    costs = {optimal_matching(D, tie_seed=s).total_cost for s in range(20)}
    assert len(costs) == 1  # jitter never reorders distinct integer totals


def test_matching_deterministic_given_tie_seed():
    D = pairwise_distances(random_bits(8, 10, 12), random_bits(9, 10, 12))
    a = optimal_matching(D, tie_seed=4)
    b = optimal_matching(D, tie_seed=4)
    assert a.pairs == b.pairs and a.total_cost == b.total_cost
    g1 = greedy_matching(D, tie_seed=4)
    g2 = greedy_matching(D, tie_seed=4)
    assert g1.pairs == g2.pairs


def greedy_oracle(D, tie_seed):
    # replay of the documented contract: U(0, 0.4/n) jitter per unordered pair
    # in upper-triangle order, then repeatedly take the cheapest free pair
    iu = np.triu_indices(D.size, k=1)
    jitter = derive_rng(tie_seed, 0xCA).random(iu[0].size) * (0.4 / D.n)
    w = D.entries[iu] + jitter
    free = [True] * D.size
    pairs = []
    for k in np.argsort(w):
        i, j = int(iu[0][k]), int(iu[1][k])
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((i, j))
    return tuple(sorted(pairs))


def test_greedy_matches_contract_replay():
    for seed in range(6):
        D = pairwise_distances(random_bits(20 + seed, 8, 10),
                               random_bits(40 + seed, 8, 10))
        got = greedy_matching(D, tie_seed=seed)
        assert got.pairs == greedy_oracle(D, seed)


def test_greedy_never_beats_optimal():
    for seed in range(12):
        D = pairwise_distances(random_bits(seed, 7, 14),
                               random_bits(1000 + seed, 7, 14, p=0.4))
        assert greedy_matching(D, seed).total_cost >= optimal_matching(D, seed).total_cost


def test_equidistant_points_any_matching_is_optimal():
    # distinct one-hot rows: every pairwise distance is exactly 2
    pool = np.eye(12, dtype=np.uint8)
    D = pairwise_distances(pool[:6], pool[6:])
    assert optimal_matching(D, 0).total_cost == 12
    assert greedy_matching(D, 0).total_cost == 12


def networkx_total(D):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    iu = np.triu_indices(D.size, k=1)
    g.add_weighted_edges_from(zip(iu[0].tolist(), iu[1].tolist(), D.entries[iu].tolist()))
    return sum(int(D.entries[i, j]) for i, j in nx.min_weight_matching(g))


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=4, max_value=16),
       st.floats(min_value=0.1, max_value=0.9), st.integers(min_value=0, max_value=10**6))
@hyp_settings(max_examples=60, deadline=None)
def test_optimal_pairs_equal_the_milp_oracle(n, bits, p, seed):
    X = random_bits(seed, n, bits)
    Y = random_bits(seed + 1, n, bits, p=p)
    D = pairwise_distances(X, Y)
    assert optimal_matching(D, tie_seed=seed).pairs == milp_pairs(D, tie_seed=seed)


def stage_instance(seed, n, bits):
    X = (derive_rng(seed, n, 0).random((n, bits)) < 0.5).astype(np.uint8)
    Y = (derive_rng(seed, n, 1).random((n, bits)) < 0.5).astype(np.uint8)
    return pairwise_distances(X, Y)


@pytest.mark.parametrize("seed, n, bits, stages", [
    (13, 30, 12, (True, False, 0)),   # pricing alone: the LP turns integral
    (0, 15, 6, (False, True, 0)),     # odd-set cuts alone
    (69, 15, 6, (False, True, 1)),    # cuts, then the integer-program finish
    (7, 25, 10, (True, True, 2)),     # all stages; pairs enter by reduced-cost fixing
])
def test_solver_stages_on_pinned_instances(seed, n, bits, stages):
    D = stage_instance(seed, n, bits)
    m = optimal_matching(D, tie_seed=seed)
    assert m.pairs == milp_pairs(D, tie_seed=seed)
    assert (m.priced > 0, m.cuts > 0, m.milp_solves) == stages


def test_nearest_neighbour_candidates_without_a_perfect_matching():
    # two far-apart groups of 11 points: every point's 10 nearest neighbours
    # lie in its own group, and an odd group cannot be matched within itself,
    # so the seed pairs (0, 1), ..., (20, 21) must supply the one crossing
    # pair, (10, 11)
    rng = derive_rng(31)
    X = np.zeros((11, 40), dtype=np.uint8)
    Y = np.ones((11, 40), dtype=np.uint8)
    X[:, :6] = rng.random((11, 6)) < 0.5
    Y[:, :6] = rng.random((11, 6)) < 0.5
    D = pairwise_distances(X, Y)
    m = optimal_matching(D, tie_seed=2)
    assert m.pairs == milp_pairs(D, tie_seed=2)
    assert cross_count(m, 11) == 1


def test_priced_pairs_carry_their_cut_entries(monkeypatch):
    # Pooled-100, 16-bit Bernoulli instances with heavily tied distances. On
    # some of them a pair prices in after odd-set cuts exist; its column must
    # carry a 1 in every cut row it crosses. Without those entries seeds 105
    # and 109 (0.5/0.5) and 102 and 104 (0.2/0.8) end on matchings of equal
    # integer cost that are not the jittered optimum.
    resolved_after_late_pairs = 0
    add_pairs, solve = crossmatch._MatchingLP.add_pairs, crossmatch._MatchingLP.solve

    def spy_add_pairs(lp, *args):
        add_pairs(lp, *args)
        lp.late_pairs = len(lp.members) > 0

    def spy_solve(lp):
        nonlocal resolved_after_late_pairs
        resolved_after_late_pairs += getattr(lp, "late_pairs", False)
        lp.late_pairs = False
        return solve(lp)

    monkeypatch.setattr(crossmatch._MatchingLP, "add_pairs", spy_add_pairs)
    monkeypatch.setattr(crossmatch._MatchingLP, "solve", spy_solve)
    for p_x, p_y in ((0.5, 0.5), (0.2, 0.8)):
        for seed in range(100, 110):
            X = (derive_rng(seed, 0).random((50, 16)) < p_x).astype(np.uint8)
            Y = (derive_rng(seed, 1).random((50, 16)) < p_y).astype(np.uint8)
            D = pairwise_distances(X, Y)
            assert optimal_matching(D, tie_seed=seed).pairs == milp_pairs(D, tie_seed=seed)
    assert resolved_after_late_pairs > 0


def test_integer_program_on_pruned_candidates(monkeypatch):
    # The integer program sees the candidates with reduced cost <= tau. At
    # tau = 0 those are about the LP's tight pairs, which on these instances
    # never hold a perfect matching, so tau goes to infinity. At the default
    # tau the program mostly runs on a strict subset of the candidates; on
    # seed 123 (0.2/0.8) that subset holds no perfect matching, and on seed
    # 138 the first U - L exceeds tau, which widens it. Each path must end on
    # the oracle's pairs.
    add_pairs, integer_matching = crossmatch._MatchingLP.add_pairs, crossmatch._integer_matching
    candidates, runs = 0, []

    def spy_add_pairs(lp, *args):
        nonlocal candidates
        add_pairs(lp, *args)
        candidates = lp.eu.size

    def spy_integer_matching(size, eu, ev, cost):
        chosen, upper = integer_matching(size, eu, ev, cost)
        runs[-1].append((eu.size, candidates, chosen is not None))
        return chosen, upper

    monkeypatch.setattr(crossmatch._MatchingLP, "add_pairs", spy_add_pairs)
    monkeypatch.setattr(crossmatch, "_integer_matching", spy_integer_matching)
    instances = [(pairwise_distances((derive_rng(seed, 0).random((50, 16)) < p_x),
                                     (derive_rng(seed, 1).random((50, 16)) < p_y)), seed)
                 for p_x, p_y, seeds in ((0.5, 0.5, (101, 106)), (0.2, 0.8, (115, 123, 138)))
                 for seed in seeds]
    oracle = [milp_pairs(D, tie_seed=seed) for D, seed in instances]
    for prune in (0.0, crossmatch._PRUNE):
        monkeypatch.setattr(crossmatch, "_PRUNE", prune)
        runs.clear()
        for (D, seed), pairs in zip(instances, oracle):
            runs.append([])
            assert optimal_matching(D, tie_seed=seed).pairs == pairs
        calls = [call for matching in runs for call in matching]
        # a run that found no matching, and one that found a matching and ran
        # again with no pair entered in between, so on a wider tau
        assert not all(found for _, _, found in calls)
        if prune > 0:
            assert any(a[2] and b[1] == a[1] for matching in runs
                       for a, b in zip(matching, matching[1:]))
            assert any(columns < held for columns, held, _ in calls)


def test_warm_solve_short_of_optimal_is_run_again_from_scratch(tmp_path, monkeypatch, capsys):
    # On trial 0 of this null-check the warm-started LP stops with status
    # "Unknown"; the from-scratch rerun must then reach the oracle's optimum.
    tested, cleared = [], []
    real_test, real_clear = harness.crossmatch_test, crossmatch._highs._Highs.clearSolver

    def keep(x, y, **kwargs):
        tested.append((x, y, kwargs["tie_seed"], real_test(x, y, **kwargs)))
        return tested[-1][-1]

    def spy_clear(highs):
        cleared.append(len(tested))
        return real_clear(highs)

    monkeypatch.setattr(harness, "crossmatch_test", keep)
    monkeypatch.setattr(crossmatch._highs._Highs, "clearSolver", spy_clear)
    argv = ["null-check", "--seed", "2468552003", "--trials", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(tested) == 4 and cleared == [0]
    x, y, tie_seed, outcome = tested[0]
    assert outcome.matching.pairs == milp_pairs(pairwise_distances(x, y), tie_seed=tie_seed)


def test_matching_lp_on_the_private_highs_api():
    # _MatchingLP drives scipy's private HiGHS binding (_highspy._core._Highs).
    # Two triangles have a known LP optimum, so a change in that binding's
    # calls, option names, column order or dual signs fails here. (Four
    # points would not do: every odd set of four points has the cut of a
    # single point, so a cut row would repeat a degree row.)
    lp = crossmatch._MatchingLP(6, np.array([0, 0, 1, 3, 3, 4]), np.array([1, 2, 2, 4, 5, 5]),
                                np.ones(6))
    for name, value in crossmatch._LP_OPTIONS:
        assert lp.highs.getOptionValue(name)[1] == value
    x, y, z, value = lp.solve()
    # x = 1/2 on every edge, and the vertex duals y = 1/2 are unique
    np.testing.assert_allclose(x, 0.5, atol=1e-12)
    np.testing.assert_allclose(y, 0.5, atol=1e-12)
    assert z.size == 0 and value == pytest.approx(3.0)
    # a bridge (2, 3) of cost 10 and the cut x(delta({0, 1, 2})) >= 1 leave one
    # solution: (0, 1), (4, 5) and the bridge, appended as the last column
    lp.add_pairs(np.array([2]), np.array([3]), np.array([10.0]))
    lp.add_cuts([np.array([True, True, True, False, False, False])])
    x, y, z, value = lp.solve()
    np.testing.assert_allclose(x, [1, 0, 0, 0, 0, 1, 1], atol=1e-12)
    assert value == pytest.approx(12.0)
    # the >= row's dual: y2 + y3 + z = 10, where y2 and y3 are at most 1/2
    assert z.shape == (1,) and z[0] >= 9.0 - 1e-9
    assert y.sum() + z.sum() == pytest.approx(value)
    crossing = np.array([0, 0, 0, 0, 0, 0, 1])
    rc = np.array([1, 1, 1, 1, 1, 1, 10]) - y[lp.eu] - y[lp.ev] - z[0] * crossing
    assert (rc >= -1e-9).all() and np.abs(rc[x > 0.5]).max() < 1e-9
    # any status but optimal raises: two points and no candidate pair
    with pytest.raises(RuntimeError, match="matching LP failed"):
        crossmatch._MatchingLP(2, np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                               np.zeros(0)).solve()
    # The integer program's options, and its integrality, which
    # changeColsIntegrality sets: without it the halves above would cost 3.
    ip = crossmatch._degree_model(6, crossmatch._IP_OPTIONS)
    for name, value in crossmatch._IP_OPTIONS:
        assert ip.getOptionValue(name)[1] == value
    eu, ev = np.array([0, 0, 1, 2, 3, 3, 4]), np.array([1, 2, 2, 3, 4, 5, 5])
    chosen, value = crossmatch._integer_matching(6, eu, ev, np.array([1, 1, 1, 10, 1, 1, 1.0]))
    np.testing.assert_array_equal(chosen, [1, 0, 0, 1, 0, 0, 1])
    assert value == pytest.approx(12.0)
    # the two triangles alone hold no perfect matching
    bridgeless = eu != 2
    chosen, value = crossmatch._integer_matching(6, eu[bridgeless], ev[bridgeless], np.ones(6))
    assert chosen is None and value == np.inf


# HiGHS keeps one thread scheduler per process, so this runs in a fresh one.
_AFTER_OTHER_HIGHS = """
import numpy as np
from scipy.optimize._highspy import _core
from gibbsmatch.crossmatch import optimal_matching, pairwise_distances

other = _core._Highs()
other.setOptionValue("output_flag", False)
other.setOptionValue("threads", 2)
other.run()
bits = np.random.default_rng(0).integers(0, 2, size=(2, 10, 16))
print(optimal_matching(pairwise_distances(*bits), tie_seed=0).total_cost)
"""


def test_matching_after_another_highs_thread_count():
    # An earlier HiGHS run with another thread count builds the scheduler.
    src_root = str(Path(crossmatch.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_root,
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _AFTER_OTHER_HIGHS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bits = np.random.default_rng(0).integers(0, 2, size=(2, 10, 16))
    assert int(proc.stdout) == optimal_matching(pairwise_distances(*bits), tie_seed=0).total_cost


def test_optimal_agrees_with_blossom_solver():
    for n, seed in ((20, 1), (40, 2), (50, 3), (100, 4)):
        D = pairwise_distances(random_bits(seed, n, 16),
                               random_bits(50 + seed, n, 16))
        assert optimal_matching(D, tie_seed=seed).total_cost == networkx_total(D)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(pairs=((0, 1), (1, 2)), total_cost=0, method="optimal")
    with pytest.raises(ValueError):
        Matching(pairs=((0, 2),), total_cost=0, method="greedy")
    m = Matching(pairs=((0, 1), (2, 3)), total_cost=3, method="optimal")
    assert cross_count(m, 2) == 0
    with pytest.raises(ValueError):
        cross_count(m, 3)


def test_cross_count_example():
    # pairs (0,2) and (1,3) both straddle the group boundary at n=2
    m = Matching(pairs=((0, 2), (1, 3)), total_cost=0, method="optimal")
    assert cross_count(m, 2) == 2
    m = Matching(pairs=((0, 1), (2, 3)), total_cost=0, method="optimal")
    assert cross_count(m, 2) == 0


# --- end-to-end test -------------------------------------------------------------

def test_separated_clusters_reach_the_floor():
    # groups far apart: all n pairs stay within-group, p-value is the floor f(0)
    rng = derive_rng(77)
    X = np.zeros((6, 16), dtype=np.uint8)
    Y = np.ones((6, 16), dtype=np.uint8)
    X[:, :3] = rng.random((6, 3)) < 0.5
    Y[:, :3] = rng.random((6, 3)) < 0.5
    out = crossmatch_test(X, Y, tie_seed=0)
    assert out.a_obs == 0
    assert out.p_value == pytest.approx(float(null_pmf(6)[0]), abs=1e-15)


def test_separated_clusters_odd_n():
    # with an odd group size one crossing is forced
    X = np.zeros((5, 12), dtype=np.uint8)
    Y = np.ones((5, 12), dtype=np.uint8)
    out = crossmatch_test(X, Y, tie_seed=3)
    assert out.a_obs == 1


def test_exact_matching_at_every_size():
    X = random_bits(1, 10, 8)
    Y = random_bits(2, 10, 8)
    assert crossmatch_test(X, Y).method == "optimal"
    # exact at 402 pooled points too, where greedy's total is 76
    big_x = random_bits(3, 201, 8)
    big_y = random_bits(4, 201, 8)
    out = crossmatch_test(big_x, big_y)
    assert out.method == "optimal"
    assert out.matching.total_cost == networkx_total(pairwise_distances(big_x, big_y))


def test_outcome_consistency():
    X = random_bits(11, 9, 10)
    Y = random_bits(12, 9, 10)
    out = crossmatch_test(X, Y, tie_seed=5)
    assert out.p_value == p_value(out.a_obs, 9)
    assert out.a_obs == cross_count(out.matching, 9)
    assert out.matching.method == "optimal"


def test_outcome_validation():
    with pytest.raises(ValueError):
        CrossmatchOutcome(n=4, a_obs=5, p_value=0.5, method="optimal")
    with pytest.raises(ValueError):
        CrossmatchOutcome(n=4, a_obs=3, p_value=0.5, method="optimal")  # parity
    with pytest.raises(ValueError):
        CrossmatchOutcome(n=4, a_obs=4, p_value=0.0, method="optimal")
    with pytest.raises(ValueError):
        CrossmatchOutcome(n=4, a_obs=4, p_value=1.5, method="optimal")


def test_row_order_does_not_bias_p_values():
    """Jitter lives on index pairs, so one instance may tie-break differently
    after a row shuffle; over many trials the mean p-value must not move."""
    trials = 300
    p_plain = np.empty(trials)
    p_shuffled = np.empty(trials)
    for t in range(trials):
        rng = derive_rng(9000, t)
        X = (rng.random((20, 16)) < 0.5).astype(np.uint8)
        Y = (rng.random((20, 16)) < 0.5).astype(np.uint8)
        p_plain[t] = crossmatch_test(X, Y, tie_seed=t).p_value
        perm = derive_rng(9001, t)
        Xp = X[perm.permutation(20)]
        Yp = Y[perm.permutation(20)]
        p_shuffled[t] = crossmatch_test(Xp, Yp, tie_seed=t).p_value
    assert abs(p_plain.mean() - p_shuffled.mean()) < 0.03
