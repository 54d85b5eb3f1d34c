"""Crossmatch two-sample test on binary sample batches.

Pools the two groups, builds the Hamming distance matrix, finds a
minimum-weight perfect matching, and counts cross-group pairs. Under the
null that both groups share one distribution, the cross count A of a
minimum-weight matching has a known closed-form distribution; small A is
evidence the groups differ, and the p-value is the lower tail F(a_obs).

Binary data has heavily tied distances, so every unordered pair receives a
seeded jitter drawn from U(0, 0.4/n). Any perfect matching sums exactly n
jitters, so the perturbation of a matching total stays below 0.4 < 1/2 and
distinct integer totals are never reordered; among cost-equal matchings the
jitter picks one independent of input row order. Reported total_cost is
recomputed from the unjittered integer distances.

The exact matcher solves Edmonds' matching linear program by cutting planes
and pricing (Grötschel & Holland 1985; Applegate & Cook 1993): the LP on a
sparse candidate set of pairs, odd-set cuts for fractional solutions, every
pair priced in by its reduced cost, and an integer program when the cuts
run out, made exact by reduced-cost fixing (see optimal_matching). The
integer program sees only the candidates whose reduced cost is at most a
threshold tau, which starts at _PRUNE and widens whenever the bound it
returns could admit a pair it did not see. Both go through scipy's private
HiGHS binding scipy.optimize._highspy._core: the LP is one model per
matching, to which priced pairs are added as columns and cuts as rows, so
the dual simplex restarts from the last basis; each integer program is a
fresh model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs
from scipy.sparse.csgraph import connected_components
from scipy.special import gammaln, logsumexp

from .rbm import SampleBatch, as_bits
from .rng import derive_rng

__all__ = [
    "DistanceMatrix",
    "Matching",
    "CrossmatchOutcome",
    "pairwise_distances",
    "optimal_matching",
    "greedy_matching",
    "cross_count",
    "null_pmf",
    "p_value",
    "P_FLOOR",
    "crossmatch_test",
]

_JITTER_TAG = 0xCA
_TILE_ROWS = 512       # pooled rows per block of the distance computation
_NEIGHBOURS = 10       # candidate pairs per point: its nearest by jittered weight
_CUT_ROUNDS = 10       # odd-set cut rounds before the integer-program finish
_TOL = 1e-9            # reduced costs below -_TOL price a pair in
_FRACTIONAL = 1e-6     # LP values further than this from 0 and 1 are fractional
# The serial dual simplex (simplex_strategy 1) on the calling thread, from the
# previous basis (presolve off), with tolerances far below HiGHS's 1e-7
# defaults so that no candidate prices below -_TOL and the final duals bound
# every matching. HiGHS keeps one thread scheduler per process and fails any
# run whose non-zero `threads` differs from its size, so `threads` 0 accepts
# whatever scheduler an earlier HiGHS user in the process built.
_LP_OPTIONS = (("output_flag", False), ("threads", 0), ("presolve", "off"),
               ("solver", "simplex"), ("simplex_strategy", 1),
               ("primal_feasibility_tolerance", 1e-10), ("dual_feasibility_tolerance", 1e-10))
# The integer program: a fresh model per solve, with no relative gap (as
# scipy's milp with mip_rel_gap 0) and without the feasibility-jump heuristic,
# which doubles its time on pooled-100, 16-bit instances.
_IP_OPTIONS = (("output_flag", False), ("threads", 0), ("mip_rel_gap", 0.0),
               ("mip_heuristic_run_feasibility_jump", False))
_PRUNE = 1.0           # the integer program first sees the candidates with rc <= this
P_FLOOR = float(np.nextafter(0.0, 1.0))  # p_value of a tail below every positive double


def _bit_rows(x) -> np.ndarray:
    arr = as_bits(x.samples if isinstance(x, SampleBatch) else x, "samples")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D sample array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Hamming distances over the pooled groups (first n rows = X)."""

    entries: np.ndarray
    n: int  # per-group size; entries is (2n, 2n)

    def __post_init__(self):
        d = np.asarray(self.entries)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"entries must be square, got shape {d.shape}")
        if d.shape[0] != 2 * self.n:
            raise ValueError(f"expected a {2 * self.n}x{2 * self.n} matrix for n={self.n}")
        if (d < 0).any():
            raise ValueError("distances must be non-negative")
        if np.diagonal(d).any():
            raise ValueError("diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")

    @property
    def size(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class Matching:
    """A perfect matching on pooled indices 0..2n-1 (0-based pairs)."""

    pairs: tuple
    total_cost: float
    method: str
    # Work of the exact solver; zero for greedy, and written to no output.
    lp_rounds: int = field(default=0, compare=False, repr=False)
    cuts: int = field(default=0, compare=False, repr=False)
    priced: int = field(default=0, compare=False, repr=False)
    milp_solves: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        flat = sorted(i for pair in self.pairs for i in pair)
        if flat != list(range(2 * len(self.pairs))):
            raise ValueError("pairs must cover every pooled index exactly once")


@dataclass(frozen=True)
class CrossmatchOutcome:
    """One test's result. log10_p is set only when every term of the lower
    tail underflowed: p_value then reads P_FLOOR, the smallest positive
    double, and log10_p gives the tail's size."""

    n: int
    a_obs: int
    p_value: float
    method: str
    matching: Matching = field(repr=False, compare=False, default=None)
    log10_p: float | None = None

    def __post_init__(self):
        if not 0 <= self.a_obs <= self.n:
            raise ValueError(f"a_obs={self.a_obs} outside 0..{self.n}")
        if (self.n - self.a_obs) % 2:
            raise ValueError(f"a_obs={self.a_obs} has wrong parity for n={self.n}")
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError(f"p_value={self.p_value} outside (0, 1]")


def pairwise_distances(X, Y) -> DistanceMatrix:
    """Hamming distance matrix over the pooled rows of X then Y.

    d(x, y) = |x| + |y| - 2 x.y, with the dot products from a float32 matrix
    product, one tile of _TILE_ROWS rows at a time. Every partial sum is an
    integer no larger than the row width, which is below 2**24, so float32
    holds each one exactly.
    """
    xb, yb = _bit_rows(X), _bit_rows(Y)
    if xb.shape[1] != yb.shape[1]:
        raise ValueError(f"row length mismatch: {xb.shape[1]} vs {yb.shape[1]}")
    if xb.shape[0] != yb.shape[0]:
        raise ValueError(f"group size mismatch: {xb.shape[0]} vs {yb.shape[0]}")
    if xb.shape[1] >= 2 ** 24:
        raise ValueError(f"rows of {xb.shape[1]} bits are too wide for exact float32 sums")
    z = np.vstack([xb, yb])
    ones = z.sum(axis=1, dtype=np.int64)
    z = z.astype(np.float32)
    d = np.empty((z.shape[0], z.shape[0]), dtype=np.int64)
    for r in range(0, z.shape[0], _TILE_ROWS):
        tile = slice(r, r + _TILE_ROWS)
        d[tile] = ones[tile, None] + ones - 2 * (z[tile] @ z.T).astype(np.int64)
    return DistanceMatrix(entries=d, n=xb.shape[0])


def _jittered_weights(D: DistanceMatrix, tie_seed: int):
    """Float copy of the distances with seeded per-pair tie-break jitter added."""
    size = D.size
    iu = np.triu_indices(size, k=1)
    jitter = derive_rng(tie_seed, _JITTER_TAG).random(iu[0].size) * (0.4 / (size // 2))
    w = D.entries.astype(np.float64)
    w[iu] += jitter
    w.T[iu] += jitter
    return w, iu


def _finish(D: DistanceMatrix, pairs, method: str, **counts) -> Matching:
    pairs = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
    cost = sum(int(D.entries[i, j]) for i, j in pairs)
    return Matching(pairs=pairs, total_cost=cost, method=method, **counts)


def _greedy_pairs(w: np.ndarray, iu) -> list:
    """Repeatedly take the globally cheapest pair of two free points."""
    size = w.shape[0]
    free = np.ones(size, dtype=bool)
    pairs = []
    for k in np.argsort(w[iu]):
        i, j = int(iu[0][k]), int(iu[1][k])
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((i, j))
            if 2 * len(pairs) == size:
                break
    return pairs


def _crossing(members: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Cut-by-pair mask: True where the pair has exactly one end in the odd set."""
    return members[:, eu] != members[:, ev]


def _offsets(index: np.ndarray, n: int) -> np.ndarray:
    """Compressed-sparse offsets (length n + 1) of entries sorted by this
    row (or column) index."""
    return np.concatenate([[0], np.cumsum(np.bincount(index, minlength=n))])


def _check(status, call: str):
    if status != _highs.HighsStatus.kOk:
        raise RuntimeError(f"matching solver: HiGHS {call} returned {status}")


def _degree_model(size: int, options) -> _highs._Highs:
    """A HiGHS model with the given options and the rows x(delta(v)) = 1."""
    highs = _highs._Highs()
    for name, value in options:
        _check(highs.setOptionValue(name, value), f"option {name}")
    _check(highs.addRows(size, np.ones(size), np.ones(size), 0, np.zeros(size, dtype=np.int32),
                         np.zeros(0, dtype=np.int32), np.zeros(0)), "addRows")
    return highs


class _MatchingLP:
    """Edmonds' matching LP on the candidate pairs, as one HiGHS model.

    Rows 0..size-1 are the degree equalities x(delta(v)) = 1; every later
    row is an odd-set cut x(delta(S)) >= 1, in the order of ``members``.
    Column j is the pair (eu[j], ev[j]). Pairs and cuts are only appended,
    so each solve restarts the dual simplex from the previous basis.
    """

    def __init__(self, size: int, eu, ev, cost):
        self.size = size
        self.eu = self.ev = np.zeros(0, dtype=np.intp)
        self.members = np.zeros((0, size), dtype=bool)
        self.highs = _degree_model(size, _LP_OPTIONS)
        self.add_pairs(eu, ev, cost)

    def add_pairs(self, eu, ev, cost):
        """Append one column per pair, with a 1 in its two degree rows and in
        every existing cut row that it crosses."""
        cut, col = np.nonzero(_crossing(self.members, eu, ev))
        cols = np.concatenate([np.arange(eu.size), np.arange(eu.size), col])
        rows = np.concatenate([eu, ev, self.size + cut])
        order = np.lexsort((rows, cols))  # column-wise, rows ascending in each column
        _check(self.highs.addCols(eu.size, cost, np.zeros(eu.size), np.full(eu.size, np.inf),
                                  rows.size, _offsets(cols, eu.size)[:-1].astype(np.int32),
                                  rows[order].astype(np.int32), np.ones(rows.size)), "addCols")
        self.eu = np.concatenate([self.eu, eu])
        self.ev = np.concatenate([self.ev, ev])

    def add_cuts(self, members: list):
        """Append one row x(delta(S)) >= 1 per membership row S."""
        members = np.array(members)
        row, col = np.nonzero(_crossing(members, self.eu, self.ev))  # row-major order
        _check(self.highs.addRows(len(members), np.ones(len(members)),
                                  np.full(len(members), np.inf), col.size,
                                  _offsets(row, len(members))[:-1].astype(np.int32),
                                  col.astype(np.int32),
                                  np.ones(col.size)), "addRows")
        self.members = np.vstack([self.members, members])

    def solve(self):
        """Solution x, vertex duals y, cut duals z >= 0 and the optimal value.

        A warm solve that stops short of optimal runs once more from scratch."""
        run = self.highs.run()
        status = self.highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            self.highs.clearSolver()
            run = self.highs.run()
            status = self.highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"matching LP failed: {self.highs.modelStatusToString(status)} "
                               f"(run returned {run})")
        solution = self.highs.getSolution()
        dual = np.array(solution.row_dual)
        return (np.array(solution.col_value), dual[:self.size], dual[self.size:],
                self.highs.getInfo().objective_function_value)


def _reduced_costs(w: np.ndarray, y, z, members: np.ndarray) -> np.ndarray:
    """w_uv - y_u - y_v - sum of z_S over the cuts S that separate u from v."""
    rc = w - y[:, None] - y[None, :]
    if len(members):
        member = members.T.astype(np.float64)
        crossing = member @ z
        rc -= crossing[:, None] + crossing[None, :] - 2.0 * (member * z) @ member.T
    return rc


def _odd_components(size: int, eu, ev, x) -> list:
    """Membership rows of the odd connected components of the LP support."""
    support = x > _FRACTIONAL
    u, v = eu[support], ev[support]
    graph = sparse.csr_matrix((np.ones(u.size), v[np.argsort(u)], _offsets(u, size)),
                              shape=(size, size))
    _, labels = connected_components(graph, directed=False)
    return [labels == c for c in np.flatnonzero(np.bincount(labels) % 2)]


def _integer_matching(size: int, eu, ev, cost):
    """Minimum-weight perfect matching on the given pairs, as a HiGHS integer
    program: a mask over the pairs and its weight, or (None, inf) if the
    pairs hold no perfect matching."""
    highs = _degree_model(size, _IP_OPTIONS)
    _check(highs.addCols(eu.size, cost, np.zeros(eu.size), np.ones(eu.size), 2 * eu.size,
                         np.arange(0, 2 * eu.size, 2, dtype=np.int32),
                         np.stack([eu, ev], axis=1).ravel().astype(np.int32),
                         np.ones(2 * eu.size)), "addCols")
    _check(highs.changeColsIntegrality(eu.size, np.arange(eu.size, dtype=np.int32),
                                       np.full(eu.size, _highs.HighsVarType.kInteger.value,
                                               dtype=np.uint8)), "changeColsIntegrality")
    run = highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        return None, np.inf
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"matching integer program failed: "
                           f"{highs.modelStatusToString(status)} (run returned {run})")
    return np.array(highs.getSolution().col_value) > 0.5, highs.getInfo().objective_function_value


def optimal_matching(D: DistanceMatrix, tie_seed: int = 0) -> Matching:
    """Minimum-weight perfect matching of the pooled points.

    Exact for the jittered weights, so the pairs are the jittered optimum and
    the integer total_cost is the true minimum. The candidate pairs start as
    each point's nearest neighbours plus the pairs (0, 1), (2, 3), ..., which
    guarantee a perfect matching. One HiGHS model of the matching LP on the
    candidates (_MatchingLP) lives for the whole call. Each round solves it
    from the previous basis and prices every pair with its duals:
    rc_uv = w_uv - y_u - y_v - sum of z_S over the cuts S that separate u
    and v. Pairs with rc_uv < 0 enter as new columns, each with its entries
    in the cut rows it crosses, and the LP is solved again. Once none do, the
    duals are feasible for the LP over all pairs: an integral solution is
    then optimal, and a fractional one gets a cut row x(delta(S)) >= 1 for
    each odd component S of its support.

    When no odd component is left, or after _CUT_ROUNDS cut rounds, the
    finish begins. The duals are feasible for every pair (rc >= 0) and the
    cut duals are nonnegative, so by weak duality every perfect matching M
    weighs at least L + (sum of rc over M), L being the LP value. A matching
    that uses a pair with rc > U - L therefore weighs more than U. So an
    integer program on the candidates with rc <= tau, tau = _PRUNE at first,
    gives their best matching, of weight U, and:

    - if those candidates hold no perfect matching, tau becomes infinite
      (all candidates, which the seed pairs make matchable) and it runs again;
    - if U - L > tau, a candidate it did not see could beat U, so tau
      becomes U - L and it runs again (U can only fall, so once is enough);
    - otherwise its matching is the best over all candidates. The pairs
      with rc <= U - L that are not candidates yet join them, and the
      integer program runs again until none do; its matching is then
      optimal over all pairs.

    The returned Matching counts the LP rounds, cuts, priced pairs and
    integer programs.
    """
    size = D.size
    if size % 2:
        raise ValueError("matching requires an even number of points")
    w, _ = _jittered_weights(D, tie_seed)
    np.fill_diagonal(w, np.inf)
    k = min(_NEIGHBOURS, size - 1)
    cand = np.zeros((size, size), dtype=bool)
    cand[np.arange(size)[:, None], np.argpartition(w, k - 1, axis=1)[:, :k]] = True
    cand[np.arange(0, size, 2), np.arange(1, size, 2)] = True
    cand = np.triu(cand | cand.T, 1)
    eu, ev = np.nonzero(cand)
    lp = _MatchingLP(size, eu, ev, w[eu, ev])
    counts = {"lp_rounds": 0, "cuts": 0, "priced": 0, "milp_solves": 0}

    def enter(mask) -> int:
        # new pairs are appended, so lp.eu/lp.ev stay in column order
        nu, nv = np.nonzero(np.triu(mask & ~cand, 1))
        if nu.size:
            cand[nu, nv] = True
            lp.add_pairs(nu, nv, w[nu, nv])
            counts["priced"] += nu.size
        return nu.size

    def result(chosen) -> Matching:
        return _finish(D, zip(lp.eu[chosen].tolist(), lp.ev[chosen].tolist()), "optimal",
                       **counts)

    cut_rounds = 0
    while True:
        x, y, z, lower = lp.solve()
        counts["lp_rounds"] += 1
        rc = _reduced_costs(w, y, z, lp.members)
        if enter(rc < -_TOL):
            continue
        if not (np.abs(x - np.round(x)) > _FRACTIONAL).any():
            return result(x > 0.5)
        odd = _odd_components(size, lp.eu, lp.ev, x) if cut_rounds < _CUT_ROUNDS else []
        if not odd:
            break
        lp.add_cuts(odd)
        counts["cuts"] += len(odd)
        cut_rounds += 1
    tau = _PRUNE
    while True:
        pruned = np.flatnonzero(rc[lp.eu, lp.ev] <= tau)
        chosen, upper = _integer_matching(size, lp.eu[pruned], lp.ev[pruned],
                                          w[lp.eu[pruned], lp.ev[pruned]])
        counts["milp_solves"] += 1
        if chosen is None:
            if tau == np.inf:  # cannot happen: the seed pairs are candidates
                raise RuntimeError("matching integer program found no perfect matching")
            tau = np.inf
            continue
        # the slack covers the rounding of U and L, which are sums of many weights
        bound = upper - lower + _TOL * max(1.0, abs(upper))
        if bound > tau:
            tau = bound
        elif not enter(rc <= bound):
            return result(pruned[chosen])


def greedy_matching(D: DistanceMatrix, tie_seed: int = 0) -> Matching:
    """Repeatedly match the globally closest unmatched pair of pooled points."""
    if D.size % 2:
        raise ValueError("matching requires an even number of points")
    w, iu = _jittered_weights(D, tie_seed)
    return _finish(D, _greedy_pairs(w, iu), "greedy")


def cross_count(m: Matching, n: int) -> int:
    """Count of matched pairs joining group X (index < n) with group Y."""
    if len(m.pairs) != n:
        raise ValueError(f"matching has {len(m.pairs)} pairs, expected {n}")
    return sum(1 for i, j in m.pairs if (i < n) != (j < n))


def _log_null_pmf(n: int) -> np.ndarray:
    """log f(a) of null_pmf, -inf where n - a is odd."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = np.arange(n + 1)
    log_choose = gammaln(2 * n + 1) - 2 * gammaln(n + 1)
    with np.errstate(invalid="ignore"):
        logf = (a * np.log(2.0) + gammaln(n + 1) - log_choose
                - 2 * gammaln((n - a) / 2 + 1) - gammaln(a + 1))
    return np.where((n - a) % 2 == 0, logf, -np.inf)


def null_pmf(n: int) -> np.ndarray:
    """Exact null distribution of the cross count A for group size n.

    f(a) = 2^a n! / (C(2n, n) * (((n - a)/2)!)^2 * a!)  when n - a is even,
    zero otherwise; evaluated in log-space.
    """
    return np.exp(_log_null_pmf(n))


def _tail(a_obs: int, n: int) -> tuple[float, float | None]:
    """(p, log10_p) for the lower tail F(a_obs) = P(A <= a_obs) under the null.

    p is F(a_obs) as a double. A nonempty tail whose every term underflowed
    reads P_FLOOR, an upper bound on it, and log10_p then gives its size as
    logsumexp(log f[:a_obs + 1]) - logsumexp(log f), which does not
    underflow; otherwise log10_p is None.
    """
    a_obs = int(a_obs)
    if not 0 <= a_obs <= n:
        raise ValueError(f"a_obs={a_obs} outside 0..{n}")
    logf = _log_null_pmf(n)
    cdf = np.cumsum(np.exp(logf))
    if cdf[a_obs] == 0 and a_obs >= n % 2:
        return P_FLOOR, float((logsumexp(logf[:a_obs + 1]) - logsumexp(logf)) / np.log(10.0))
    return float(cdf[a_obs] / cdf[-1]), None


def p_value(a_obs: int, n: int) -> float:
    """Lower-tail probability F(a_obs) = P(A <= a_obs) under the null.

    A positive tail below the smallest positive double reads P_FLOOR, an
    upper bound on it; crossmatch_test then also reports its log10.
    """
    return _tail(a_obs, n)[0]


def crossmatch_test(X, Y, *, tie_seed: int = 0) -> CrossmatchOutcome:
    """Run the Crossmatch test between two equal-size binary sample batches.

    The matching is always the minimum-weight one, for which the closed-form
    null is exact.
    """
    D = pairwise_distances(X, Y)
    m = optimal_matching(D, tie_seed)
    a = cross_count(m, D.n)
    p, log10_p = _tail(a, D.n)
    return CrossmatchOutcome(n=D.n, a_obs=a, p_value=p, method=m.method, matching=m,
                             log10_p=log10_p)
