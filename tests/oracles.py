"""Independent brute-force oracles shared by the test modules.

Deliberately dumb implementations (plain loops, subset enumeration)
whose correctness is obvious by inspection; the library must agree with
them on small instances.
"""

import itertools
import math

import numpy as np

from qmspace import ghdist, transport
from qmspace.core import SpaceError


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


def csgraph_chains(d, radius, sources=None, limit=np.inf):
    """scipy's Dijkstra on the hops d(i, j) < radius, i != j: ``(dist,
    pred)`` as ``core`` computed them before it had a routine of its own,
    with pred -9999 where there is none."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    hops = (d < radius) & ~np.eye(d.shape[0], dtype=bool)
    return dijkstra(csr_matrix(np.where(hops, d, 0.0)), directed=True,
                    indices=sources, return_predecessors=True, limit=limit)


def least_tight_hops(d, radius, dist, sources):
    """For each row a and point j with finite dist[a, j] > 0, the hops
    k -> j with dist[a, k] + d[k, j] == dist[a, j], dist[a, k] < dist[a, j]
    and the least dist[a, k]: (lowest such k, how many), -1 and 0
    elsewhere."""
    n = d.shape[0]
    hops = (d > 0) & (d < radius) & ~np.eye(n, dtype=bool)
    lowest = np.full(dist.shape, -1)
    count = np.zeros(dist.shape, dtype=int)
    for a in range(len(sources)):
        row = dist[a]
        tight = (hops & (row[:, None] + d == row[None, :])
                 & (row[:, None] < row[None, :]))
        key = np.where(tight, row[:, None], np.inf)
        least = tight & (key == key.min(axis=0))
        has = least.any(axis=0)
        lowest[a, has] = least.argmax(axis=0)[has]
        count[a, has] = least.sum(axis=0)[has]
    return lowest, count


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


def row_loop_grad_norms(mspace, f, neighbor_radius):
    """``curvature.grad_norms`` as it was before it used the hop list: one
    row at a time, over the y with 0 < d(x, y) < radius."""
    f = np.asarray(f, dtype=float)
    d = mspace.space.dist
    n = mspace.n
    grad = np.zeros(n)
    grad_minus = np.zeros(n)
    isolated = []
    for x in range(n):
        mask = (d[x] < neighbor_radius) & (d[x] > 0)
        if not mask.any():
            isolated.append(x)
            continue
        quot = (f[mask] - f[x]) / d[x][mask]
        grad[x] = float(np.abs(quot).max())
        grad_minus[x] = float(np.maximum(-quot, 0.0).max())
    return grad, grad_minus, isolated


def loop_dynamical_plan(space, coupling):
    """``transport.dynamical_plan`` as it was before it walked every pair at
    once: one ``dijkstra`` call, then each support pair in row-major order,
    its chain read back from j one predecessor at a time."""
    d = space.dist
    pi = coupling.matrix
    sources = np.nonzero(pi.sum(axis=1) > transport.MASS_TOL)[0]
    support = pi[sources] > transport.MASS_TOL
    bound = d[sources] * (1 + transport.CHAIN_TOL) + transport.MASS_TOL
    radius = transport.default_hop_radius(space)
    dist_out, pred = transport.dijkstra(
        d, radius, sources,
        np.where(support, bound, 0.0).max(axis=1, initial=0.0),
        return_predecessors=True)
    chains = {}
    for si, j in zip(*np.nonzero(support)):
        i = sources[si]
        if not dist_out[si, j] <= bound[si, j]:
            best = transport.dijkstra(d, radius, [i])[0, j]
            raise SpaceError(
                f"no chain from {i} to {j} within tolerance: best "
                f"{best:.6g} vs direct {d[i, j]:.6g}"
            )
        path = [int(j)]
        while path[-1] != i:
            if len(path) > space.n:
                raise SpaceError(f"chain from {i} to {j} does not end at {i}")
            path.append(int(pred[si, path[-1]]))
        chains[(int(i), int(j))] = tuple(reversed(path))
    return transport.DynamicalPlan(space, coupling, chains)


def loop_chain_vertices(d, chain, ts):
    """For each t, the chain vertex whose cumulative length is nearest to
    t * (total length), ties to the earlier vertex."""
    c = np.asarray(chain)
    cum = np.concatenate([[0.0], np.cumsum(d[c[:-1], c[1:]])])
    idx = np.abs(cum[None, :] - np.asarray(ts)[:, None] * cum[-1]).argmin(axis=1)
    return [chain[k] for k in idx]


def loop_interpolate(plan, ts):
    """``transport.interpolate`` as a loop over the chains, each adding its
    mass at its vertex of every t."""
    ts = [float(t) for t in ts]
    d = plan.space.dist
    measures = [np.zeros(plan.space.n) for _ in ts]
    pi = plan.coupling.matrix
    for (i, j), chain in plan.chains.items():
        for m, v in zip(measures, loop_chain_vertices(d, chain, ts)):
            m[v] += pi[i, j]
    return transport.Interpolation(tuple(ts), tuple(measures))


def loop_u_functional(U, mu, nu):
    """``curvature.u_functional`` over numpy scalars, one atom at a time."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    ac = nu > 0
    total = 0.0
    for m, w in zip(mu[ac], nu[ac]):
        total += U.u(m / w) * w
    singular = float(mu[~ac].sum())
    if singular > 0:
        if U.du_inf == math.inf:
            return math.inf
        total += U.du_inf * singular
    return float(total)


def loop_u_beta_functional(U, pi, dist, nu, params, direction="forward"):
    """``curvature.u_beta_functional`` over numpy scalars, one support pair
    at a time, with ``beta`` called for every pair."""
    from qmspace.curvature import beta

    mat = pi.matrix
    marg = pi.mu if direction == "forward" else pi.nu
    nu = np.asarray(nu, dtype=float)
    ac = nu > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(ac, marg / np.where(ac, nu, 1.0), np.nan)
    total = 0.0
    rows, cols = np.nonzero(mat > 0)
    for i, j in zip(rows, cols):
        mass = mat[i, j]
        k = i if direction == "forward" else j
        if not ac[k]:
            continue
        r = rho[k]
        if r <= 0:
            continue
        b = beta(params, float(dist[i, j]))
        if b == math.inf:
            if U.du0 == -math.inf:
                return -math.inf
            total += U.du0 * mass
        else:
            total += U.u(r / b) * (b / r) * mass
    singular = float(marg[~ac].sum())
    if singular > 0:
        if U.du_inf == math.inf:
            return math.inf
        total += U.du_inf * singular
    return float(total)


def chain_loop_barycenters(mspace, A0, A1, t):
    """``curvature._barycenter_set``'s points as they were before it used
    ``interpolate``: the e_t vertex of each chain of the uniform product
    coupling, read off the chain one at a time."""
    space = mspace.space
    mu0 = np.zeros(space.n)
    mu1 = np.zeros(space.n)
    mu0[A0] = 1.0 / len(A0)
    mu1[A1] = 1.0 / len(A1)
    plan = loop_dynamical_plan(
        space, transport.Coupling(np.outer(mu0, mu1), mu0, mu1))
    return sorted({loop_chain_vertices(space.dist, chain, [t])[0]
                   for chain in plan.chains.values()})
