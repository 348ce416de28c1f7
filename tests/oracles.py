"""Independent reference implementations used to cross-check the package.

Most of it is written in plain Python against the documented contracts,
deliberately avoiding the incremental bookkeeping tricks the real code uses,
so that agreement between the two is meaningful. The ``per_layer_*``
functions are the exception: they keep the aggregators' former layout, one
``np.stack`` of separate per-layer vectors, as the bit-for-bit reference for
the baselines that now gather each layer's columns a block at a time from
the models' flat vectors, and for celtibero, which works in one update
matrix. Their models are sequences of per-layer flat vectors. ``per_pair_cosine_distances``
is likewise the former cosine kernel, one ``np.dot`` per pair, kept as the
bit-for-bit reference for ``pairwise_cosine_matrix``, which fills a block
of 16 rows at a time, copying its input or scaling it in place, and
``per_layer_loss_and_grad``/``per_layer_train_local`` are the former
trainer: a second copy of the forward pass, separate per-layer gradient
arrays, each step's own gather of its batch and one SGD update per layer,
the reference for the trainer that gathers blocks of batches,
backpropagates into one flat gradient and updates the flat vector at once.
``full_recompute_two_clusters`` is the former agglomeration loop, which
divides the whole statistic matrix by the size products at every merge,
kept as the bit-for-bit reference for the loop that recomputes only the
merged row and column of the average linkage. ``gathered_synthetic`` is
the former synthetic-blob generator, which draws the whole noise matrix in
one call, adds a per-sample centroid matrix and shuffles by a gather into a
second matrix, kept as the bit-for-bit reference for the generator that
makes the matrix in row blocks and shuffles it in place.
``appended_partition_dirichlet`` is the former Dirichlet partitioner, which
appends one Python ``int`` per sample to each client's list, kept as the
bit-for-bit reference for the partitioner that joins NumPy chunks.
``argsort_neurotoxin_mask`` is the former Neurotoxin mask, one stable
``np.argsort`` of each layer's negated magnitudes, kept as the bit-for-bit
reference for the mask that cuts each layer with one ``np.partition``.
``stamped_backdoor_rate`` is the former backdoor scorer, which stamps every
non-target test row at once and predicts them in one call, kept as the
bit-for-bit reference for the scorer that stamps one block of rows at a
time. ``cosine_distance`` is ``pairwise_cosine_matrix`` on one pair of vectors,
``forward`` the softmax of the trainer's forward pass on one feature row, and
``loss_and_grad`` its backward pass on one batch, which only the tests call.
"""

from __future__ import annotations

import math

import numpy as np

from celtibero import (
    ModelWeights,
    ShapeMismatchError,
    agglomerative_two_clusters,
    label_clusters,
    pairwise_cosine_matrix,
)
from celtibero.training import _batch_grads, _dense_pairs, _forward, predict


def cosine_distance(u, v) -> float:
    """``1 - cos(u, v)``, clamped to [0, 2]: the two-vector case of the cosine
    kernel, with its scaling, NaN/Inf check and zero-norm convention."""
    return float(pairwise_cosine_matrix((u, v)).entries[0, 1])


def forward(model, features, activation="relu"):
    """Class probabilities for a single feature vector, the softmax of the
    trainer's own forward pass: the row-at-a-time reference for batched
    ``predict``, which takes the argmax of the logits themselves.

    Softmax is computed with max-subtraction, so finite inputs always give a
    finite probability vector summing to 1.
    """
    x = np.asarray(features, dtype=np.float64).reshape(-1)
    pairs = _dense_pairs(model)
    expected = pairs[0][0].shape[0]
    if x.size != expected:
        raise ShapeMismatchError(f"feature vector length {x.size}, model expects {expected}")
    logits = _forward(pairs, x[np.newaxis, :], activation)[1][0]
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def loss_and_grad(model, features, labels, activation="relu"):
    """Mean softmax cross-entropy over a batch and its gradient, through the
    trainer's own backward pass, packaged in the model's shapes and layer
    order (matrix, bias, matrix, bias, ...)."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    grad = np.empty_like(model.flat)
    pairs = _dense_pairs(model)
    targets = np.eye(pairs[-1][1].size)[y]
    log_probs = _batch_grads(pairs, _dense_pairs(model, grad), X, targets, activation)
    loss = -float(log_probs[np.arange(X.shape[0]), y].mean())
    return loss, ModelWeights._owning(model, grad)


def replay_two_clusters(matrix, linkage="average"):
    """Step-replay agglomerative clustering down to two clusters.

    ``matrix`` is any square indexable of pairwise distances. At every step
    the linkage between each pair of clusters is recomputed from scratch from
    the original matrix. Ties are broken by the lexicographically smallest
    (min representative, max representative) pair, where a cluster's
    representative is its smallest member. Returns (cluster_1, cluster_2) as
    sorted member lists, cluster_1 being the one that contains index 0.
    """
    n = len(matrix)
    clusters = [[i] for i in range(n)]

    def linkage_of(a, b):
        cross = [matrix[i][j] for i in a for j in b]
        if linkage == "average":
            return sum(cross) / len(cross)
        if linkage == "single":
            return min(cross)
        if linkage == "complete":
            return max(cross)
        raise ValueError(linkage)

    while len(clusters) > 2:
        best = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                rep_pair = (
                    min(clusters[x][0], clusters[y][0]),
                    max(clusters[x][0], clusters[y][0]),
                )
                key = (linkage_of(clusters[x], clusters[y]), rep_pair)
                if best is None or key < best[0]:
                    best = (key, x, y)
        _, x, y = best
        merged = sorted(clusters[x] + clusters[y])
        clusters = [c for k, c in enumerate(clusters) if k not in (x, y)]
        clusters.append(merged)

    first, second = clusters
    if 0 in second:
        first, second = second, first
    return sorted(first), sorted(second)


def full_recompute_two_clusters(matrix, linkage="average"):
    """Former ``agglomerative_two_clusters`` loop on a ``DistanceMatrix``:
    the average linkage is recomputed in full, ``stat / np.outer(size,
    size)``, before every merge. Returns the label array, 1 for the cluster
    that holds client 0 and 2 for the other."""
    merge = {"average": np.add, "single": np.minimum, "complete": np.maximum}[linkage]
    n = matrix.n
    # stat[a, b]: statistic between the clusters represented by a and b;
    # rows and columns of merged-away clusters, and the diagonal, hold inf.
    stat = np.array(matrix.entries)
    np.fill_diagonal(stat, np.inf)
    size = np.ones(n)
    rep = np.arange(n)
    for _ in range(n - 2):
        link = stat / np.outer(size, size) if linkage == "average" else stat
        # stat is symmetric, so the first minimum in row-major order is the
        # lexicographically smallest (rep_a, rep_b) pair, and a < b.
        a, b = divmod(int(np.argmin(link)), n)
        stat[a] = stat[:, a] = merge(stat[a], stat[b])
        stat[a, a] = stat[b] = stat[:, b] = np.inf
        size[a] += size[b]
        rep[rep == b] = a
    return np.where(rep == 0, 1, 2)


def mean_pairwise(matrix, members):
    """Average pairwise distance inside a cluster; singleton gives 0."""
    members = list(members)
    if len(members) < 2:
        return 0.0
    total = 0.0
    count = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            total += matrix[members[a]][members[b]]
            count += 1
    return total / count


def replay_verdict(matrix, linkage="average"):
    """Full detection replay: clusters, size-weighted scores, poisoned label.

    Returns (benign_members, poisoned_members, score_1, score_2).
    """
    c1, c2 = replay_two_clusters(matrix, linkage)
    score_1 = len(c1) * mean_pairwise(matrix, c1)
    score_2 = len(c2) * mean_pairwise(matrix, c2)
    if score_1 < score_2:
        return c2, c1, score_1, score_2
    return c1, c2, score_1, score_2


def krum_scores(vectors, f):
    """Krum scores by brute force: for every candidate, sum the squared
    Euclidean distances to its n - f - 2 nearest other candidates."""
    n = len(vectors)
    scores = []
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            dists.append(sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j])))
        dists.sort()
        scores.append(sum(dists[: n - f - 2]))
    return scores


def sorted_median(values):
    """Median as the midpoint of the central order statistics."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mask_count(mask_ratio, size):
    """Entries a mask of the given ratio zeroes in a layer of ``size``:
    ceil(ratio * size), forgiving 1e-9 of float error in the product (0.07
    of 100 is 7, though 0.07 * 100 is 7.000000000000001), and at least 1."""
    return max(1, math.ceil(mask_ratio * size - 1e-9))


def top_mask_indices(reference, mask_ratio):
    """Indices a mask of the given ratio must zero: the ``mask_count``
    coordinates with the largest |reference|, magnitude ties favouring the
    lower index."""
    size = len(reference)
    count = mask_count(mask_ratio, size)
    order = sorted(range(size), key=lambda i: (-abs(reference[i]), i))
    return set(order[:count])


def argsort_neurotoxin_mask(update, reference, mask_ratio):
    """Argsort reference for ``neurotoxin_mask``: per layer, zero the first
    ``mask_count`` entries of a stable argsort of ``-|reference|``. Returns
    the masked flat vector."""
    masked = update.flat.copy()
    for dims, sl in zip(update.shapes(), update.slices()):
        count = mask_count(mask_ratio, math.prod(dims))
        order = np.argsort(-np.abs(reference.flat[sl]), kind="stable")
        masked[sl][order[:count]] = 0.0
    return masked


def _layer_stack(models, k):
    return np.stack([m[k] for m in models])


def per_layer_fedavg(models):
    """Per-layer reference for ``fedavg``: the mean of each layer's stack."""
    return [_layer_stack(models, k).mean(axis=0) for k in range(len(models[0]))]


def per_layer_coordinate_median(models):
    """Per-layer reference for ``coordinate_median``."""
    return [np.median(_layer_stack(models, k), axis=0) for k in range(len(models[0]))]


def per_layer_celtibero(global_model, local_models, linkage="average"):
    """Per-layer reference for ``celtibero_aggregate``: each layer's updates
    are clustered on their own, and the global layer moves by the median of
    the stacked surviving updates. Returns (new layers, verdicts)."""
    new_layers, verdicts = [], []
    for k, global_vec in enumerate(global_model):
        vecs = [m[k] - global_vec for m in local_models]
        matrix = pairwise_cosine_matrix(vecs)
        verdict = label_clusters(matrix, agglomerative_two_clusters(matrix, linkage))
        survivors = np.stack([vecs[i] for i in verdict.benign])
        new_layers.append(global_vec + np.median(survivors, axis=0))
        verdicts.append(verdict)
    return new_layers, tuple(verdicts)


def per_layer_krum_scores(models, f):
    """Krum scores from the pairwise squared distances of the models' layers
    joined end to end, one ``np.dot`` per pair."""
    flat = np.stack([np.concatenate(m) for m in models])
    n = len(models)
    squared = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = flat[i] - flat[j]
            squared[i, j] = squared[j, i] = float(np.dot(d, d))
    scores = np.empty(n)
    for i in range(n):
        others = np.sort(np.delete(squared[i], i))
        scores[i] = others[: n - f - 2].sum()
    return scores


def per_pair_cosine_distances(vectors):
    """Per-pair reference for ``pairwise_cosine_matrix``: each vector
    converted, checked and scaled on its own, then one ``np.dot`` per pair."""
    scaled = []
    for k, vec in enumerate(vectors):
        arr = np.asarray(vec, dtype=np.float64).reshape(-1)
        if scaled and arr.size != scaled[0].size:
            raise ShapeMismatchError(f"vector {k}: length {arr.size} vs {scaled[0].size}")
        peak = float(np.max(np.abs(arr), initial=0.0))
        if not math.isfinite(peak):
            raise ValueError(f"vector {k} contains NaN or Inf")
        scaled.append(np.ldexp(arr, -math.frexp(peak)[1]))
    norms = [float(np.linalg.norm(s)) for s in scaled]
    n = len(scaled)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] == 0.0 or norms[j] == 0.0:
                dist = 0.0 if norms[i] == norms[j] else 1.0
            else:
                cos = float(np.dot(scaled[i], scaled[j])) / (norms[i] * norms[j])
                dist = min(2.0, max(0.0, 1.0 - cos))
            out[i, j] = out[j, i] = dist
    return out


def _per_layer_grads(weights, biases, X, y, activation):
    """Mean cross-entropy over the batch and its gradients, in layer order."""
    batch = X.shape[0]
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [X]
    hidden = X
    for weight, bias in zip(weights[:-1], biases[:-1]):
        z = hidden @ weight + bias
        hidden = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
        pre.append(z)
        post.append(hidden)
    logits = hidden @ weights[-1] + biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss = -float(log_probs[np.arange(batch), y].mean())
    grad_logits = np.exp(log_probs)
    grad_logits[np.arange(batch), y] -= 1.0
    grad_logits /= batch
    weight_grads = [np.empty(0)] * len(weights)
    bias_grads = [np.empty(0)] * len(biases)
    upstream = grad_logits
    for k in range(len(weights) - 1, -1, -1):
        weight_grads[k] = post[k].T @ upstream
        bias_grads[k] = upstream.sum(axis=0)
        if k > 0:
            if activation == "relu":
                slope = (pre[k - 1] > 0.0).astype(np.float64)
            else:
                slope = 1.0 - post[k] * post[k]
            upstream = (upstream @ weights[k].T) * slope
    return loss, weight_grads, bias_grads


def _per_layer_params(model):
    """Writable copies of a dense model's weight matrices and biases."""
    pairs = zip(model.slices(), model.shapes())
    layers = [model.flat[sl].reshape(dims).copy() for sl, dims in pairs]
    return layers[0::2], layers[1::2]


def _pack(shapes, weights, biases):
    return ModelWeights(
        shapes, np.concatenate([g.ravel() for pair in zip(weights, biases) for g in pair])
    )


def per_layer_loss_and_grad(model, features, labels, activation="relu"):
    """Per-layer reference for ``loss_and_grad``."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    loss, weight_grads, bias_grads = _per_layer_grads(
        *_per_layer_params(model), X, y, activation
    )
    return loss, _pack(model.shapes(), weight_grads, bias_grads)


def per_layer_train_local(model, data, cfg, rng, activation="relu"):
    """Per-layer reference for ``train_local``: the same epochs, sample
    order (one ``rng.permutation`` per epoch) and batches, each step
    updating every matrix and bias on its own."""
    weights, biases = _per_layer_params(model)
    batch = min(cfg.batch_size, data.n)
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, batch):
            take = order[start : start + batch]
            _, weight_grads, bias_grads = _per_layer_grads(
                weights, biases, data.features[take], data.labels[take], activation
            )
            for k in range(len(weights)):
                weights[k] -= cfg.learning_rate * weight_grads[k]
                biases[k] -= cfg.learning_rate * bias_grads[k]
    return _pack(model.shapes(), weights, biases)


def dealt_partition_iid(labels, num_classes, num_clients, rng):
    """Reference for ``partition_iid``: shuffle each class in turn and deal
    its samples one at a time round-robin, the dealing offset carrying over
    from class to class. Returns each client's sorted sample indices."""
    buckets = [[] for _ in range(num_clients)]
    offset = 0
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for j, sample in enumerate(idx):
            buckets[(offset + j) % num_clients].append(int(sample))
        offset = (offset + idx.size) % num_clients
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def gathered_synthetic(num_classes, num_samples, num_features, separation, rng):
    """Former ``gen_synthetic`` body: returns (features, labels)."""
    base, remainder = divmod(num_samples, num_classes)
    counts = [base + (1 if c < remainder else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    centroids = np.full((num_classes, num_features), 0.2)
    centroids[np.arange(num_classes), np.arange(num_classes)] = 0.8
    features = rng.normal(0.0, (0.8 - 0.2) / separation, (num_samples, num_features))
    features += centroids[labels]
    np.clip(features, 0.0, 1.0, out=features)
    order = rng.permutation(num_samples)
    return features[order], labels[order]


def dirichlet_buckets(labels, num_classes, num_clients, alpha, rng):
    """Each client's indices before ``partition_dirichlet``'s repair, one
    Python ``int`` appended at a time, classes in order."""
    buckets = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, float(alpha)))
        bounds = np.floor(np.cumsum(proportions) * idx.size).astype(np.int64)[:-1]
        for client, chunk in enumerate(np.split(idx, bounds)):
            buckets[client].extend(int(s) for s in chunk)
    return buckets


def appended_partition_dirichlet(labels, num_classes, num_clients, alpha, rng):
    """Former ``partition_dirichlet`` body, which builds Python lists one
    sample at a time and repairs each empty client (the first empty one)
    by popping the last entry of the first largest list. Returns each
    client's sorted sample indices."""
    buckets = dirichlet_buckets(labels, num_classes, num_clients, alpha, rng)
    sizes = [len(b) for b in buckets]
    while min(sizes) == 0:
        donor = int(np.argmax(sizes))
        empty = sizes.index(0)
        buckets[empty].append(buckets[donor].pop())
        sizes[donor] -= 1
        sizes[empty] += 1
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def stamped_backdoor_rate(model, data, trigger, activation="relu"):
    """The share of ``data``'s non-target rows predicted as the target once
    the trigger is stamped in, from one stamped copy of all of them."""
    stamped = data.features[data.labels != trigger.target_class]
    stamped[:, list(trigger.positions)] = trigger.values
    preds = predict(model, stamped, activation)
    return float((preds == trigger.target_class).mean())
