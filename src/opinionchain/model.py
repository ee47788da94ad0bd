"""Hidden-state chain model for whole-sequence classification.

A sequence of observation vectors is scored jointly with a latent state
sequence and a single output label.  The unnormalized log-score of a
configuration ``(y, h, x)`` is

    score(y, h, x) = sum_j <x_j, W_obs[h_j]>
                   + sum_j W_state[y, h_j]
                   + sum_{j<L} W_trans[y, h_j, h_{j+1}]

and the label posterior marginalizes the latent states per label.  All
inference goes through one log-space kernel, :func:`forward_backward`,
batched over labels and over chains of any mix of lengths; training,
the batched label posteriors (:func:`label_posteriors`) and the
single-sequence functions below all call it, once per batch.  The
kernel's recursions run position-major, on (position, state, label,
sequence) arrays, so each log-sum-exp reduces the leading state axis
over contiguous slices.  Sequences of hundreds of segments, or weights
in the thousands, would underflow or overflow a probability-space pass.
The brute-force enumeration oracles live with the tests.

Conventions fixed here and relied on elsewhere:

* the transition sum ranges over the L-1 adjacent pairs, so a length-1
  sequence has no transition term;
* no begin/end boundary states and no bias feature are added;
* ``predict`` breaks exact posterior ties toward the lowest label index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class ObservationSequence:
    """One document: an ordered (L, D) matrix of per-segment feature vectors.

    L >= 1 and every entry must be finite; both are checked at construction,
    so an empty sequence can never reach the inference routines.
    """

    doc_id: str
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise InvalidInputError(
                f"{self.doc_id}: features must be 2-D (L, D), got shape {feats.shape}"
            )
        if feats.shape[0] < 1:
            raise InvalidInputError(f"{self.doc_id}: a sequence needs at least one segment")
        if not np.isfinite(feats).all():
            raise InvalidInputError(f"{self.doc_id}: non-finite feature values")
        object.__setattr__(self, "features", feats)

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class HcrfParameters:
    """Model weights: observation, label-state, and label-transition blocks.

    Shapes: ``theta_obs`` is (H, D), ``theta_state`` is (Y, H) and
    ``theta_trans`` is (Y, H, H); all entries must be finite.
    """

    theta_obs: np.ndarray
    theta_state: np.ndarray
    theta_trans: np.ndarray

    def __post_init__(self):
        self.theta_obs = np.asarray(self.theta_obs, dtype=np.float64)
        self.theta_state = np.asarray(self.theta_state, dtype=np.float64)
        self.theta_trans = np.asarray(self.theta_trans, dtype=np.float64)
        if self.theta_obs.ndim != 2 or self.theta_state.ndim != 2 or self.theta_trans.ndim != 3:
            raise InvalidInputError("parameter blocks have wrong rank")
        h, _ = self.theta_obs.shape
        y, h2 = self.theta_state.shape
        if h2 != h or self.theta_trans.shape != (y, h, h):
            raise InvalidInputError(
                "inconsistent parameter shapes: "
                f"obs {self.theta_obs.shape}, state {self.theta_state.shape}, "
                f"trans {self.theta_trans.shape}"
            )
        if h < 1 or y < 2:
            raise InvalidInputError("need at least 1 hidden state and 2 labels")
        for block in (self.theta_obs, self.theta_state, self.theta_trans):
            if not np.isfinite(block).all():
                raise InvalidInputError("non-finite parameter values")

    @property
    def num_hidden_states(self) -> int:
        return self.theta_obs.shape[0]

    @property
    def num_labels(self) -> int:
        return self.theta_state.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.theta_obs.shape[1]

    @classmethod
    def zeros(cls, num_hidden_states: int, num_labels: int, feature_dim: int) -> "HcrfParameters":
        h, y, d = num_hidden_states, num_labels, feature_dim
        return cls(np.zeros((h, d)), np.zeros((y, h)), np.zeros((y, h, h)))

    @classmethod
    def random(
        cls,
        num_hidden_states: int,
        num_labels: int,
        feature_dim: int,
        rng: np.random.Generator,
        scale: float = 0.01,
    ) -> "HcrfParameters":
        """Small symmetric-uniform init; all-zero is a saddle of the
        hidden-state exchange symmetry, so training starts here."""
        h, y, d = num_hidden_states, num_labels, feature_dim
        return cls(
            rng.uniform(-scale, scale, size=(h, d)),
            rng.uniform(-scale, scale, size=(y, h)),
            rng.uniform(-scale, scale, size=(y, h, h)),
        )

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.theta_obs.ravel(), self.theta_state.ravel(), self.theta_trans.ravel()]
        )

    @classmethod
    def from_vector(
        cls, vec: np.ndarray, num_hidden_states: int, num_labels: int, feature_dim: int
    ) -> "HcrfParameters":
        h, y, d = num_hidden_states, num_labels, feature_dim
        sizes = (h * d, y * h, y * h * h)
        if vec.shape != (sum(sizes),):
            raise InvalidInputError(f"vector length {vec.shape} does not match ({h},{y},{d})")
        a, b = sizes[0], sizes[0] + sizes[1]
        return cls(
            vec[:a].reshape(h, d),
            vec[a:b].reshape(y, h),
            vec[b:].reshape(y, h, h),
        )

    def copy(self) -> "HcrfParameters":
        return HcrfParameters(
            self.theta_obs.copy(), self.theta_state.copy(), self.theta_trans.copy()
        )


@dataclass(frozen=True)
class Marginals:
    """Latent-state posteriors given one label: P(h_j | y, x) per position
    and P(h_j, h_{j+1} | y, x) per adjacent pair."""

    state_posteriors: np.ndarray  # (L, H)
    pair_posteriors: np.ndarray  # (L-1, H, H)


def _check_dims(x: ObservationSequence, theta: HcrfParameters):
    if x.dim != theta.feature_dim:
        raise InvalidInputError(
            f"{x.doc_id}: feature dim {x.dim} != model dim {theta.feature_dim}"
        )


def _check_label(y: int, theta: HcrfParameters):
    if not 0 <= y < theta.num_labels:
        raise InvalidInputError(f"label index {y} out of range [0, {theta.num_labels})")


def _emission_scores(x: ObservationSequence, theta: HcrfParameters) -> np.ndarray:
    """(L, H) matrix of <x_j, W_obs[h]> inner products."""
    return x.features @ theta.theta_obs.T


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis 0, shifted by the maximum so the largest
    term is exp(0) = 1: finite and exact to rounding for any finite input,
    however large its magnitude.  Reducing the leading axis lets numpy
    add whole trailing slices elementwise, in index order."""
    m = a.max(axis=0)
    return np.log(np.exp(a - m).sum(axis=0)) + m


def node_scores(emission: np.ndarray, theta: HcrfParameters) -> np.ndarray:
    """(Y, N, L, H) per-label node scores from (N, L, H) emission scores:
    the emission plus the label-state weight of each hidden state.

    The sums are stored position-major, in the (L, H, Y, N) memory order
    that :func:`forward_backward` recurses over, and returned as a
    transposed view of it."""
    num, length, num_h = emission.shape
    out = np.empty((length, num_h, theta.num_labels, num))
    np.add(emission.transpose(1, 2, 0)[:, :, None], theta.theta_state.T[:, :, None], out=out)
    return out.transpose(2, 3, 0, 1)


@dataclass(frozen=True)
class ChainPosteriors:
    """Forward-backward results for Y labels times N chains sorted by
    non-increasing length (see :func:`forward_backward`).

    The latent-state posteriors come per length run: the chains of one
    length L are a contiguous slice ``runs[r]`` of the chain axis, and
    ``state[r]`` and ``pair[r]`` hold their posteriors as C-contiguous
    arrays, runs in ascending length.  The tuples are empty when only
    the log-partitions were asked for.
    """

    log_z: np.ndarray  # (Y, N): log sum over latent paths
    runs: tuple[slice, ...] = ()
    state: tuple[np.ndarray, ...] = ()  # (Y, N_r, L, H): P(h_j | y, x)
    pair: tuple[np.ndarray, ...] = ()  # (Y, N_r, L-1, H, H): P(h_j, h_{j+1} | y, x)


def _active_chains(lengths: np.ndarray, num: int, max_len: int) -> list[int]:
    """active[j] = how many chains are still running at position j, for
    j in [0, Lmax]; with non-increasing ``lengths`` they are the first
    active[j] chains."""
    if (
        lengths.shape != (num,)
        or num < 1
        or (lengths[1:] > lengths[:-1]).any()
        or lengths[-1] < 1
        or lengths[0] > max_len
    ):
        raise InvalidInputError(
            f"chain lengths must be a non-increasing ({num},) vector in [1, {max_len}], "
            f"got {lengths.tolist()}"
        )
    return np.searchsorted(-lengths, -np.arange(max_len + 1)).tolist()


def forward_backward(
    node: np.ndarray, trans: np.ndarray, lengths, with_marginals: bool = True
) -> ChainPosteriors:
    """Log-space forward-backward over every label and chain at once.

    ``node`` is (Y, N, Lmax, H) from :func:`node_scores`, with chain n's
    scores left-aligned in positions [0, lengths[n]); the padding after
    them is never read.  ``lengths`` must be non-increasing, so the
    chains still running at position j are the prefix ``[:active[j]]``
    of the chain axis: each forward step updates
    ``alpha[j, ..., :active[j]]`` and each backward step
    ``beta[j, ..., :active[j+1]]``, with no mask and no arithmetic on
    padding.  ``log_z`` gathers each chain's ``alpha`` at its own last
    position, and the posteriors are formed per length run from that
    run's slices.  Every per-chain value comes from the same elementwise
    operations as for that chain alone, so it is bitwise what a one-chain
    call gives.  ``trans`` is the (Y, H, H) transition block.  The only
    loops are the two recursions over positions and the one over length
    runs; labels, chains and state pairs are vectorized.

    The recursions run position-major, on (Lmax, H, Y, N) arrays (the
    memory order :func:`node_scores` already writes, so reading ``node``
    that way copies nothing), and the transitions are held as
    (from, to, Y, 1) for the forward pass and (to, from, Y, 1) for the
    backward pass.  Every
    log-sum-exp reduces the leading state axis.  Each run's posteriors
    are transposed back and returned C-contiguous: the einsums that
    reduce them in training sum in memory order, so a transposed view
    would change their rounding.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    active = _active_chains(lengths, node.shape[1], node.shape[2])
    node = np.ascontiguousarray(node.transpose(2, 3, 0, 1))  # (Lmax, H, Y, N)
    max_len = node.shape[0]
    fwd = trans.transpose(1, 2, 0)[..., None]  # (from, to, Y, 1)
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    for j in range(1, max_len):
        a = active[j]
        alpha[j, ..., :a] = _logsumexp(alpha[j - 1, :, None, :, :a] + fwd) + node[j, ..., :a]
    ends = alpha[lengths - 1, :, :, np.arange(lengths.shape[0])]  # (N, H, Y)
    log_z = _logsumexp(np.ascontiguousarray(ends.transpose(1, 2, 0)))  # (Y, N)
    if not with_marginals:
        return ChainPosteriors(log_z)

    bwd = trans.transpose(2, 1, 0)[..., None]  # (to, from, Y, 1)
    beta = np.zeros_like(node)  # 0 at each chain's last position
    for j in range(max_len - 2, -1, -1):
        a = active[j + 1]
        beta[j, ..., :a] = _logsumexp(bwd + (node[j + 1, ..., :a] + beta[j + 1, ..., :a])[:, None])
    runs, state, pair = [], [], []
    for length in range(1, max_len + 1):
        run = slice(active[length], active[length - 1])  # the chains of this length
        if run.start == run.stop:
            continue
        alpha_r, beta_r, lz = alpha[:length, ..., run], beta[:length, ..., run], log_z[:, run]
        ahead = (node[1:length, ..., run] + beta_r[1:])[:, None]
        runs.append(run)
        state.append(np.ascontiguousarray(np.exp(alpha_r + beta_r - lz).transpose(2, 3, 0, 1)))
        pair_r = np.exp(alpha_r[:-1, :, None] + fwd + ahead - lz)
        pair.append(np.ascontiguousarray(pair_r.transpose(3, 4, 0, 1, 2)))
    return ChainPosteriors(log_z, tuple(runs), tuple(state), tuple(pair))


def label_log_posteriors(log_z: np.ndarray) -> np.ndarray:
    """log P(y | x) from (Y, ...) per-label log-partitions, along axis 0."""
    return log_z - _logsumexp(log_z)


def _single_chain(
    x: ObservationSequence, theta: HcrfParameters, labels
) -> tuple[np.ndarray, np.ndarray]:
    """(node, trans) for one sequence (N=1), restricted to ``labels``."""
    _check_dims(x, theta)
    emission = _emission_scores(x, theta)[None]
    return node_scores(emission, theta)[labels], theta.theta_trans[labels]


def log_partition_per_label(y: int, x: ObservationSequence, theta: HcrfParameters) -> float:
    """log sum over all latent paths of exp(score(y, h, x)); O(L * H^2)."""
    _check_label(y, theta)
    node, trans = _single_chain(x, theta, [y])
    return float(forward_backward(node, trans, [x.length], with_marginals=False).log_z[0, 0])


def log_partitions(x: ObservationSequence, theta: HcrfParameters) -> np.ndarray:
    """Per-label log-partitions as a (Y,) vector."""
    node, trans = _single_chain(x, theta, slice(None))
    return forward_backward(node, trans, [x.length], with_marginals=False).log_z[:, 0]


def label_posteriors(emissions: list[np.ndarray], theta: HcrfParameters) -> np.ndarray:
    """(N, Y) label posteriors P(y | x) of N chains, from each chain's
    (L, H) emission scores.  The chains are sorted by non-increasing
    length (stably) and left-aligned in one padded batch, so one kernel
    call covers them all; every row is bitwise what the chain alone
    would give."""
    out = np.empty((len(emissions), theta.num_labels))
    if not emissions:
        return out
    lengths = np.array([emission.shape[0] for emission in emissions])
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    padded = np.zeros((len(emissions), lengths[0], theta.num_hidden_states))
    filled = np.arange(lengths[0]) < lengths[:, None]  # (N, Lmax), row-major like the rows below
    padded[filled] = np.concatenate([emissions[i] for i in order.tolist()])
    node = node_scores(padded, theta)
    log_z = forward_backward(node, theta.theta_trans, lengths, with_marginals=False).log_z
    out[order] = np.exp(label_log_posteriors(log_z)).T
    return out


def posterior(x: ObservationSequence, theta: HcrfParameters) -> np.ndarray:
    """Label posterior P(y | x); a (Y,) probability vector summing to 1."""
    _check_dims(x, theta)
    return label_posteriors([_emission_scores(x, theta)], theta)[0]


def predict(x: ObservationSequence, theta: HcrfParameters) -> int:
    """argmax_y P(y | x); exact ties go to the lowest label index."""
    return int(np.argmax(posterior(x, theta)))


def marginals(y: int, x: ObservationSequence, theta: HcrfParameters) -> Marginals:
    """Forward-backward latent-state posteriors conditioned on label ``y``.

    Needed by the likelihood gradient: the expected feature counts are
    sums of these state and pair posteriors.
    """
    _check_label(y, theta)
    node, trans = _single_chain(x, theta, [y])
    chain = forward_backward(node, trans, [x.length])
    return Marginals(state_posteriors=chain.state[0][0, 0], pair_posteriors=chain.pair[0][0, 0])
