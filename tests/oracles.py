"""Independent brute-force oracles shared by the test modules.

Deliberately dumb implementations (plain loops, subset enumeration)
whose correctness is obvious by inspection; the library must agree with
them on small instances.
"""

import itertools

import numpy as np

from qmspace import ghdist


def polytope_vertex_minimum(cost, mu, nu):
    """Transportation-polytope oracle: every vertex of the polytope is a
    basic solution supported on a spanning tree of the complete
    bipartite support graph; enumerate them all and take the best cost.
    """
    rows = [i for i in range(len(mu)) if mu[i] > 0]
    cols = [j for j in range(len(nu)) if nu[j] > 0]
    m, n = len(rows), len(cols)
    edges = list(itertools.product(range(m), range(n)))
    best = np.inf
    for tree in itertools.combinations(edges, m + n - 1):
        deg = {}
        for i, j in tree:
            deg[("r", i)] = deg.get(("r", i), 0) + 1
            deg[("c", j)] = deg.get(("c", j), 0) + 1
        if len(deg) != m + n:
            continue  # not spanning
        need_r = {i: mu[rows[i]] for i in range(m)}
        need_c = {j: nu[cols[j]] for j in range(n)}
        remaining = list(tree)
        plan = {}
        ok = True
        while remaining:
            for k, (i, j) in enumerate(remaining):
                if deg[("r", i)] == 1:
                    x = need_r[i]
                    plan[(i, j)] = x
                    need_c[j] -= x
                    need_r[i] = 0.0
                    break
                if deg[("c", j)] == 1:
                    x = need_c[j]
                    plan[(i, j)] = x
                    need_r[i] -= x
                    need_c[j] = 0.0
                    break
            else:
                ok = False  # a cycle survived: not a tree
                break
            deg[("r", i)] -= 1
            deg[("c", j)] -= 1
            remaining.pop(k)
        if not ok or any(v < -1e-12 for v in plan.values()):
            continue
        val = sum(v * cost[rows[i], cols[j]] for (i, j), v in plan.items())
        best = min(best, val)
    return best


def brute_iso_defect(X, Y):
    """Enumerate every map X -> Y with plain loops."""
    best = np.inf
    for combo in itertools.product(range(Y.n), repeat=X.n):
        dis = max(
            abs(Y.dist[combo[i], combo[j]] - X.dist[i, j])
            for i in range(X.n) for j in range(X.n)
        )
        cover = max(
            min(Y.dist[combo[i], y] for i in range(X.n))
            for y in range(Y.n)
        )
        best = min(best, max(dis, cover))
    return best


def brute_prokhorov(space, mu, nu, tol=1e-9):
    """Subset-enumeration oracle for the Prokhorov distance (n <= 10)."""
    n = space.n
    d = space.dist
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    subsets = [
        [i for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n)
    ]

    def feasible(eps):
        for A in subsets:
            fat = set()
            for a in A:
                fat.update(np.nonzero(d[a] < eps)[0])
            if sum(mu[i] for i in A) > sum(nu[i] for i in fat) + eps + tol:
                return False
            if sum(nu[i] for i in A) > sum(mu[i] for i in fat) + eps + tol:
                return False
        return True

    lo, hi = 0.0, max(float(d.max()), float(mu.sum()), float(nu.sum()), tol)
    if not feasible(hi):
        hi *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def transport_constraints(nr, nc):
    """The transportation LP's equality rows as scipy builds them: the nr
    row sums, then the first nc - 1 column sums, in CSC form."""
    from scipy.sparse import eye, kron, vstack

    # format="csr" keeps kron off its BSR path, which stores zeros
    return vstack([kron(eye(nr), np.ones((1, nc)), format="csr"),
                   kron(np.ones((1, nr)), eye(nc - 1, nc), format="csr")],
                  format="csr").tocsc()


def networkx_excess(d, mu, nu, eps):
    """sup over sets A of mu(A) - nu(A^eps) as networkx's maximum flow:
    ``ghdist._excess`` before it had a flow solver of its own.

    Integer nodes (i, n + j, source 2n, sink 2n + 1) keep the flow value
    independent of PYTHONHASHSEED; networkx's default preflow-push can
    raise on float capacities, augmenting paths do not.
    """
    import networkx as nx
    from networkx.algorithms.flow import shortest_augmenting_path

    n = len(mu)
    s, t = 2 * n, 2 * n + 1
    g = nx.DiGraph()
    big = float(mu.sum() + nu.sum() + 1.0)
    for i in range(n):
        if mu[i] > 0:
            g.add_edge(s, i, capacity=float(mu[i]))
        if nu[i] > 0:
            g.add_edge(n + i, t, capacity=float(nu[i]))
    rows, cols = np.nonzero(d < eps)
    for i, j in zip(rows, cols):
        g.add_edge(int(i), n + int(j), capacity=big)
    if s not in g or t not in g:
        return float(mu.sum())
    flow = nx.maximum_flow_value(g, s, t, flow_func=shortest_augmenting_path)
    return float(mu.sum() - flow)


def bisect_prokhorov(space, mu, nu):
    """The bisection of ``ghdist.prokhorov`` without its memo: every step
    solves the flow of each inequality it checks with ``ghdist._excess``."""
    tol = ghdist.PROKHOROV_TOL
    d = space.dist
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if max(np.maximum(mu - nu, 0).sum(), np.maximum(nu - mu, 0).sum()) <= tol:
        return 0.0
    lo, hi = 0.0, max(float(d.max()), float(mu.sum()), float(nu.sum()), tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (ghdist._excess(d, mu, nu, mid) <= mid + tol
                and ghdist._excess(d, nu, mu, mid) <= mid + tol):
            hi = mid
        else:
            lo = mid
    return hi


def rescoring_iso_defect(X, Y, seed=0):
    """The local search of ``ghdist.iso_defect`` with every candidate map
    scored in full: (defect, assignment) of the best start."""
    dx, dy = X.dist, Y.dist
    m, n = X.n, Y.n

    def defects(maps):
        sub = dy[maps[:, :, None], maps[:, None, :]]
        dis = np.abs(sub - dx[None, :, :]).reshape(len(maps), -1).max(axis=1)
        cover = dy[maps, :].min(axis=1).max(axis=1)
        return np.maximum(dis, cover)

    rng = np.random.default_rng(seed)
    starts = [ghdist._eccentricity_start(dx, dy)]
    if m <= n:
        starts.append(np.arange(m))
    while len(starts) < ghdist.LOCAL_SEARCH_RESTARTS:
        starts.append(rng.integers(0, n, size=m))
    best, best_a = np.inf, starts[0]
    for a0 in starts:
        a = np.array(a0, dtype=int)
        cur = float(defects(a[None])[0])
        for _ in range(ghdist.LOCAL_SEARCH_ITER_FACTOR * m):
            for i in range(m):
                cand = np.repeat(a[None], n, axis=0)
                cand[:, i] = np.arange(n)
                scores = defects(cand)
                k = int(np.argmin(scores))
                if scores[k] < cur * (1 - 2**-50):
                    a[i], cur = k, float(scores[k])
                    break
            else:
                break
        if cur < best:
            best, best_a = cur, a.copy()
    return best, best_a


def row_scan_triangle_violations(d, tol):
    """Every (i, j, k) with d(i,k) - (d(i,j) + d(j,k)) > tol, scanning each
    source row in full, in row-major order."""
    out = []
    for i in range(len(d)):
        slack = d[i][None, :] - (d[i][:, None] + d)
        out.extend((i, int(j), int(k)) for j, k in zip(*np.nonzero(slack > tol)))
    return out


def torus_translate_scan(pts, b, window):
    """Randers torus distance matrix by scanning every lattice translate
    within ``window`` periods per axis: (2*window + 1)**dim of them."""
    dim = pts.shape[1]
    delta = pts[None, :, :] - pts[:, None, :]
    period = 2.0 * np.pi
    shifts = np.arange(-window, window + 1) * period
    best = np.full(delta.shape[:2], np.inf)
    for combo in itertools.product(shifts, repeat=dim):
        w = delta + np.asarray(combo)
        val = np.linalg.norm(w, axis=2) + b * w[:, :, 0]
        np.minimum(best, val, out=best)
    np.fill_diagonal(best, 0.0)
    return best
