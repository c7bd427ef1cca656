"""Independent reference computations for the benchmark's output checks.

Everything here is built from the definitions with numpy and scipy and never
calls qnet: walk occupations from scipy's matrix exponential, long-time
quantities from scipy's eigensolver, windowed transport by Gauss-Legendre
quadrature, steady states as the null vector of a dense Liouvillian, the
Szegedy walk by register reshapes and by a dense edge-space unitary.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.cluster import hierarchy

from inputs import EdgeList

# Eigenvalues closer than this share of the spectral range are one
# eigenspace; the library documents the same rule for its long-time averages.
DEGENERACY_RTOL = 1e-9


def eig_groups(h: np.ndarray):
    """scipy eigendecomposition with eigenvalues chained into degenerate groups."""
    w, v = scipy.linalg.eigh(h)
    tol = DEGENERACY_RTOL * float(w[-1] - w[0])
    groups, start = [], 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > tol:
            groups.append(np.arange(start, k))
            start = k
    return w, v, groups


def finalize(c: np.ndarray) -> np.ndarray:
    """Closeness matrices are reported symmetric with a zero diagonal."""
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return c


# ---------------------------------------------------------------------------
# walks and transport


def walk_probabilities(h: np.ndarray, start, times) -> np.ndarray:
    """(T, n) occupations |exp(-i h t) psi0|^2; start is a node or a vector."""
    n = h.shape[0]
    psi = np.zeros(n, dtype=complex)
    if isinstance(start, (int, np.integer)):
        psi[start] = 1.0
    else:
        psi = np.asarray(start, dtype=complex)
    return np.array([np.abs(scipy.linalg.expm(-1j * t * h) @ psi) ** 2 for t in times])


def long_time_average(h: np.ndarray, psi: np.ndarray) -> np.ndarray:
    _, v, groups = eig_groups(h)
    out = np.zeros(h.shape[0])
    for idx in groups:
        block = v[:, idx]
        out += np.abs(block @ (block.conj().T @ psi)) ** 2
    return out


def projectors(h: np.ndarray):
    _, v, groups = eig_groups(h)
    for idx in groups:
        block = v[:, idx]
        yield block @ block.conj().T


def closeness_infinite(h: np.ndarray) -> np.ndarray:
    """c_ij = sum over eigenspaces of |(P_l)_ij|^2."""
    return finalize(sum(np.abs(p) ** 2 for p in projectors(h)))


def closeness_fidelity(h: np.ndarray) -> np.ndarray:
    """Long-time mean fidelity with (|i> + |j>)/sqrt(2): the time average of
    |<psi_ij| exp(-iht) |psi_ij>|^2 keeps only same-eigenspace terms."""
    c = 0.0
    for p in projectors(h):
        d = np.real(np.diag(p))
        c = c + (0.5 * (d[:, None] + d[None, :] + 2.0 * np.real(p))) ** 2
    return finalize(c)


def closeness_windowed(h: np.ndarray, t: float, nodes: int = 128) -> np.ndarray:
    """(1/t) * integral_0^t |U(s)_ij|^2 ds by Gauss-Legendre quadrature."""
    w, v = scipy.linalg.eigh(h)
    x, wt = np.polynomial.legendre.leggauss(nodes)
    c = np.zeros(h.shape)
    for xs, ws in zip(x, wt):
        s = 0.5 * t * (xs + 1.0)
        u = (v * np.exp(-1j * w * s)) @ v.conj().T
        c += 0.5 * ws * np.abs(u) ** 2
    return finalize(c)


def link_failure_affinity(h: np.ndarray) -> np.ndarray:
    """Affinity 1 / (1 + rms response difference) over links touching neither
    node, responses being long-time occupations from the uniform state."""
    n = h.shape[0]
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    links = [(i, j) for i in range(n) for j in range(i + 1, n) if h[i, j] != 0]
    base = long_time_average(h, psi)
    resp = np.zeros((n, len(links)))
    for k, (i, j) in enumerate(links):
        cut = h.copy()
        cut[i, j] = cut[j, i] = 0.0
        resp[:, k] = long_time_average(cut, psi) - base
    touch = np.zeros((n, len(links)), dtype=bool)
    for k, (i, j) in enumerate(links):
        touch[i, k] = touch[j, k] = True
    c = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            keep = ~(touch[u] | touch[v])
            d = (np.sqrt(np.mean((resp[u, keep] - resp[v, keep]) ** 2))
                 if keep.any() else 0.0)
            c[u, v] = c[v, u] = 1.0 / (1.0 + d)
    return c


# ---------------------------------------------------------------------------
# partitions


def partition_quality(c: np.ndarray, groups) -> float:
    """Intra-community closeness share minus its strength-null expectation."""
    total = c.sum()
    strength = c.sum(axis=1)
    q = 0.0
    for members in groups:
        idx = np.asarray(sorted(members))
        q += c[np.ix_(idx, idx)].sum() / total - (strength[idx].sum() / total) ** 2
    return float(q)


def average_linkage(c: np.ndarray):
    """Average-linkage dendrogram of a similarity matrix, built by scipy on the
    distance max(c) - c: every level with its quality, and the merge heights
    as similarities."""
    n = c.shape[0]
    d = c.max() - c
    np.fill_diagonal(d, 0.0)
    z = hierarchy.linkage(d[np.triu_indices(n, 1)], method="average")
    clusters = {i: [i] for i in range(n)}
    levels = [[list(m) for m in clusters.values()]]
    for k, (a, b, _, _) in enumerate(z):
        clusters[n + k] = clusters.pop(int(a)) + clusters.pop(int(b))
        levels.append([list(m) for m in clusters.values()])
    scored = [(frozenset(frozenset(m) for m in lv), partition_quality(c, lv)) for lv in levels]
    return scored, np.sort(c.max() - z[:, 2])


# ---------------------------------------------------------------------------
# ranking


def google_matrix(el: EdgeList, damping: float) -> np.ndarray:
    """Column-stochastic damped transition matrix; G[i, j] is the chance to
    step j -> i, and nodes without out-links jump uniformly."""
    a = np.abs(el.adjacency())
    n = el.n
    out = a.sum(axis=1)
    m = np.full((n, n), 1.0 / n)
    has = out > 0
    m[:, has] = (a[has] / out[has, None]).T
    return damping * m + (1.0 - damping) / n


def pagerank(el: EdgeList, damping: float = 0.85) -> np.ndarray:
    """Stationary vector of the Google matrix by one dense linear solve."""
    g = google_matrix(el, damping)
    n = el.n
    system = np.eye(n) - g
    system[0, :] = 1.0  # replace one balance equation by normalization
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs)


def steady_state_scores(el: EdgeList, unitary_weight: float, dissipative_weight: float,
                        jump_form: str, damping: float = 0.85) -> np.ndarray:
    """Diagonal of the trace-one null vector of the dense Liouvillian

        L(rho) = -i wu [H, rho] + wd sum_k (L_k rho L_k^H - {L_k^H L_k, rho}/2)

    with H = (|A| + |A|^T)/2 and jump operators sqrt(G_ij)|i><j| (transport)
    or sqrt(G_ij)|i><i| (dephasing), written out entry by entry in the
    row-major vec basis: vec(X rho Y) = (X kron Y^T) vec(rho).
    """
    n = el.n
    a = np.abs(el.adjacency())
    h = 0.5 * (a + a.T)
    g = google_matrix(el, damping)
    eye = np.eye(n)
    sup = -1j * unitary_weight * (np.kron(h, eye) - np.kron(eye, h.T))
    jump = np.zeros((n * n, n * n))
    diag = np.arange(n) * (n + 1)            # vec index of |i><i|
    if jump_form == "transport":
        jump[np.ix_(diag, diag)] += g        # |j><j| -> G_ij |i><i|
        anti = np.diag(g.sum(axis=0))        # sum_ij G_ij |j><j|
    else:
        jump[diag, diag] += g.sum(axis=1)    # |i><i| -> sum_j G_ij |i><i|
        anti = np.diag(g.sum(axis=1))
    sup = sup + dissipative_weight * (jump - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T)))
    # tr is a left null vector of any trace-preserving L, so one balance row
    # at a diagonal position is redundant and can carry tr(rho) = 1
    sup[0, :] = 0.0
    sup[0, diag] = 1.0
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(sup, rhs).reshape(n, n)
    scores = np.real(np.diag(rho))
    return scores / scores.sum()


def szegedy_scores(g: np.ndarray, steps: int, dense: bool = False):
    """Register-2 occupations of the two-reflection Szegedy walk, averaged over
    steps 1..steps. The state X[i, k] lives on |i>_1 |k>_2 and starts as
    sum_i |i> (x) sum_k sqrt(G_ki)|k> / sqrt(n); one walk step applies
    swap . (2 Pi - 1) twice. dense=True builds that unitary explicitly."""
    n = g.shape[0]
    s = np.sqrt(g).T                                  # s[i, k] = sqrt(G_ki)
    x = (s / np.sqrt(n)).astype(complex)
    if dense:
        psi = np.zeros((n * n, n))
        for i in range(n):
            psi[i * n:(i + 1) * n, i] = s[i]
        swap = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.reshape(-1)]
        u = swap @ (2.0 * psi @ psi.T - np.eye(n * n))
        u2 = u @ u
        state = x.reshape(-1)
    series = np.empty((steps, n))
    for t in range(steps):
        if dense:
            state = u2 @ state
            state /= np.linalg.norm(state)
            x = state.reshape(n, n)
        else:
            for _ in range(2):
                c = (s * x).sum(axis=1)
                x = (2.0 * s * c[:, None] - x).T
            x /= np.linalg.norm(x)
        series[t] = (np.abs(x) ** 2).sum(axis=0)
    scores = series.mean(axis=0)
    return scores / scores.sum(), series.var(axis=0)


# ---------------------------------------------------------------------------
# spectral entropies


def laplacian(el: EdgeList) -> np.ndarray:
    a = el.adjacency()
    return np.diag(np.abs(a).sum(axis=1)) - a


def propagator_density(el: EdgeList, tau: float) -> np.ndarray:
    p = scipy.linalg.expm(-tau * laplacian(el))
    return p / np.trace(p)


def rescaled_density(el: EdgeList) -> np.ndarray:
    lap = laplacian(el)
    return lap / np.trace(lap)


def entropy_bits(rho: np.ndarray) -> float:
    w = scipy.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


def js_divergence_bits(r: np.ndarray, s: np.ndarray) -> float:
    return max(0.0, entropy_bits(0.5 * (r + s)) - 0.5 * (entropy_bits(r) + entropy_bits(s)))


def kl_bits(r: np.ndarray, s: np.ndarray) -> float:
    """tr r (log2 r - log2 s) for full-rank s."""
    return float(np.real(np.trace(r @ (_logm2(r) - _logm2(s)))))


def _logm2(m: np.ndarray) -> np.ndarray:
    w, v = scipy.linalg.eigh(m)
    lw = np.where(w > 1e-14, np.log2(np.clip(w, 1e-300, None)), 0.0)
    return (v * lw) @ v.conj().T


# ---------------------------------------------------------------------------
# magnetic partition


def magnetic_communities(el: EdgeList, theta: float, k: int, seed: int) -> list[list[int]]:
    """Seeded k-means++ on the rows of |P|, P projecting onto the k lowest
    eigenspaces of the magnetic Laplacian diag(S 1) - exp(i theta (A - A^T)) * S
    with S = (|A| + |A|^T) / 2."""
    from scipy.cluster.vq import kmeans2
    a = np.abs(el.adjacency())
    sym = 0.5 * (a + a.T)
    lap = np.diag(sym.sum(axis=1)) - np.exp(1j * theta * (a - a.T)) * sym
    _, v, groups = eig_groups(lap)
    idx = np.concatenate(groups[:k])
    block = v[:, idx]
    _, labels = kmeans2(np.abs(block @ block.conj().T), k, minit="++", seed=seed)
    comms: dict[int, list[int]] = {}
    for node, lab in enumerate(labels):
        comms.setdefault(int(lab), []).append(node)
    return sorted(sorted(c) for c in comms.values())
