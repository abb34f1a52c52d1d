"""SimPoint-style representative phase selection (Sherwood et al., PACT'01).

The paper simulates 1M-instruction SPEC phases selected by the SimPoint
toolset (Section 4.2). This module implements the same pipeline over our
synthetic programs: collect Basic Block Vectors (BBVs) per fixed-length
interval, reduce dimensionality with a random projection, cluster with
k-means, and pick the interval closest to each centroid as the phase
representative, weighted by cluster population.
"""

import numpy as np

from repro.workloads.trace import TraceGenerator


class BBVCollector:
    """Collects per-interval basic-block vectors from a program walk."""

    def __init__(self, program, interval=1000, seed=0):
        self.program = program
        self.interval = interval
        self._block_index = {
            id(b): i for i, b in enumerate(program.blocks)
        }
        self._trace = TraceGenerator(program, seed=seed)

    def collect(self, n_instructions):
        """Walk ``n_instructions`` and return the BBV matrix.

        Returns an (n_intervals, n_blocks) float array; each row counts
        instructions executed per basic block in that interval, normalized
        to sum to 1.
        """
        n_blocks = len(self.program.blocks)
        rows = []
        current = np.zeros(n_blocks)
        filled = 0
        pc_to_block = {}
        for bi, block in enumerate(self.program.blocks):
            for inst in block.insts:
                pc_to_block[inst.pc] = bi
        for _ in range(n_instructions):
            inst = next(self._trace)
            current[pc_to_block[inst.pc]] += 1
            filled += 1
            if filled == self.interval:
                total = current.sum()
                rows.append(current / total if total else current)
                current = np.zeros(n_blocks)
                filled = 0
        if not rows:
            raise ValueError("n_instructions smaller than one interval")
        return np.array(rows)


def random_projection(bbvs, n_dims=15, seed=0):
    """Project BBVs to ``n_dims`` dimensions (SimPoint uses 15)."""
    bbvs = np.asarray(bbvs, dtype=float)
    if bbvs.shape[1] <= n_dims:
        return bbvs
    rng = np.random.default_rng(seed)
    projection = rng.uniform(-1.0, 1.0, size=(bbvs.shape[1], n_dims))
    return bbvs @ projection


def kmeans(points, k, seed=0, max_iters=100):
    """Plain k-means with k-means++ seeding.

    Returns (labels, centroids, inertia).
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if k <= 0 or k > n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)
    # k-means++ initialization
    centroids = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(points[rng.integers(n)])
            continue
        probs = d2 / total
        centroids.append(points[rng.choice(n, p=probs)])
    centroids = np.array(centroids)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    inertia = float(
        np.sum((points - centroids[labels]) ** 2)
    )
    return labels, centroids, inertia


def choose_simpoints(bbvs, max_k=6, seed=0):
    """Pick representative intervals and weights from a BBV matrix.

    Runs k-means for k in 1..max_k, keeps the best k by the BIC-like
    score SimPoint uses (penalized inertia), and returns a list of
    (interval_index, weight) pairs, weights summing to 1.
    """
    projected = random_projection(bbvs, seed=seed)
    n = len(projected)
    best = None
    for k in range(1, min(max_k, n) + 1):
        labels, centroids, inertia = kmeans(projected, k, seed=seed)
        # BIC-like criterion: an extra cluster must buy a substantial
        # *relative* inertia drop, or the split is fitting noise
        score = inertia * (1.0 + 0.3 * (k - 1))
        if best is None or score < best[0]:
            best = (score, k, labels, centroids)
    _, k, labels, centroids = best
    simpoints = []
    for j in range(k):
        members = np.flatnonzero(labels == j)
        if not len(members):
            continue
        dists = np.linalg.norm(projected[members] - centroids[j], axis=1)
        representative = int(members[np.argmin(dists)])
        simpoints.append((representative, len(members) / n))
    return simpoints
