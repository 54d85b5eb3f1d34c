"""Reference matcher for the tests: the dense integer program.

One binary variable per unordered pair, a degree-1 equality per point, and
the same seeded jitter as the package, solved by HiGHS branch-and-cut with
no gap. The package's LP solver must return exactly its pairs.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from gibbsmatch.crossmatch import _jittered_weights


def milp_pairs(D, tie_seed=0):
    """Sorted (i, j) pairs, i < j, of the minimum jittered-weight perfect matching."""
    w, iu = _jittered_weights(D, tie_seed)
    n_edges = iu[0].size
    incidence = sparse.csc_matrix(
        (np.ones(2 * n_edges), (np.concatenate([iu[0], iu[1]]), np.tile(np.arange(n_edges), 2))),
        shape=(D.size, n_edges))
    res = milp(c=w[iu], constraints=LinearConstraint(incidence, 1, 1),
               integrality=np.ones(n_edges), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0 and res.x is not None, res.message
    chosen = res.x > 0.5
    return tuple(sorted(zip(iu[0][chosen].tolist(), iu[1][chosen].tolist())))
