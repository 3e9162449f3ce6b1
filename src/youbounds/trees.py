"""Pure-birth tree sampling and exact per-tree conditional moments.

A tree over n tips is stored event-indexed rather than pointer-shaped: the n
inter-event periods (the k-th lasting an Exp(k) time, stem included) plus, for
each of the n-1 speciation events, the index of the lineage that split. That
is enough to answer every aggregate query the bounds need: tree height, the
per-event daughter tip counts, and the age of each event measured back from
the present.

Every quantity is computed by a block kernel: arrays whose leading axis runs
over B trees with the same tip count (a `TreeBlock`), with no Python loop over
trees or events (only over the levels of the slot tree below). The
single-tree API (`sample_tree`, `pair_mean_exp`,
`conditional_moments_you`, `conditional_moments_youj`, `jump_exposure_sums`)
is the same kernels with B = 1; the Monte Carlo harness calls them on blocks.

Daughter counts come from the slot tree. Event k keeps the split lineage in
its slot splits[k-1] and puts the new lineage in slot k, so slot k hangs below
slot splits[k-1] in a random recursive tree on the slots 0..n-1, whose depth
is about e ln n. The right daughter of event k carries exactly the tips of
slot k's subtree; the left daughter carries slot splits[k-1] itself plus the
subtrees of that slot's children created after event k.

Conditional on a tree (and on jump placements), the normalized tip average is
exactly normal, so sampling it needs no per-tip path simulation: one normal
draw from the exact conditional mean and variance below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import JumpSchedule, YouParams


@dataclass(frozen=True)
class YuleTree:
    """Event-indexed pure-birth tree.

    times[k-1] is the duration of the period with k alive lineages; the tree
    height is the full sum (the final period, with n lineages, counts).
    splits[k-1] is the 0-based index, among the k alive lineages, of the one
    that split at event k. daughter_counts[k-1] holds the number of tips that
    descend through each of event k's two daughter edges, and
    coalescence_ages[k-1] the time from the present back to event k.
    """

    times: np.ndarray
    splits: np.ndarray
    daughter_counts: np.ndarray
    coalescence_ages: np.ndarray

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def height(self) -> float:
        return float(np.sum(self.times))


@dataclass(frozen=True)
class TreeBlock:
    """B trees with n tips each: the YuleTree arrays stacked along a leading
    axis (times (B, n), daughter_counts (B, n-1, 2), coalescence_ages
    (B, n-1)), plus the heights (B,)."""

    times: np.ndarray
    daughter_counts: np.ndarray
    coalescence_ages: np.ndarray
    heights: np.ndarray

    @property
    def n(self) -> int:
        return self.times.shape[1]


def daughter_counts(splits: np.ndarray) -> np.ndarray:
    """Daughter tip counts of a block of trees: (B, n-1) splits give
    (B, n-1, 2) counts, left (the split lineage's slot) then right (the new
    slot).

    The B slot trees are numbered flat. Subtree sizes come from walking every
    slot's ancestor pointer up one level per step, adding one to each
    ancestor passed. A left count is 1 plus the subtree sizes of the new
    slot's later siblings.
    """
    b, m = splits.shape
    n = m + 1
    parent = (splits + (np.arange(b, dtype=np.int64) * n)[:, None]).ravel()
    up = np.full((b, n), -1, dtype=np.int64)
    up[:, 1:] = parent.reshape(b, m)
    up = up.ravel()

    size = np.ones(b * n, dtype=np.int64)
    ancestor = parent
    while ancestor.size:
        np.add.at(size, ancestor, 1)
        ancestor = up[ancestor]
        ancestor = ancestor[ancestor >= 0]
    del up, ancestor

    # Children grouped by parent, in event order within a group (keys of 16
    # bits or fewer make the stable sort a radix sort). The children of the
    # parents before parent q hold sum(size[:q] - 1) slots, so the running
    # sum of the grouped child sizes, subtracted from that sum up to and
    # including q, plus 1, leaves 1 plus the sizes of the later siblings.
    order = np.argsort(parent.astype(np.min_scalar_type(b * n)), kind="stable")
    counts = np.empty((b * m, 2), dtype=np.int64)
    counts.reshape(b, m, 2)[:, :, 1] = size.reshape(b, n)[:, 1:]
    through = counts[order, 1]
    np.cumsum(through, out=through)
    size -= 1
    np.cumsum(size, out=size)
    size += 1
    left = size[parent[order]]
    left -= through
    counts[order, 0] = left
    return counts.reshape(b, m, 2)


def tree_block(uniforms: np.ndarray, splits: np.ndarray) -> TreeBlock:
    """Build B trees from their period uniforms (B, n) and splits (B, n-1).

    The k-th period is the inverse-CDF Exp(k) duration -log1p(-u)/k; event
    ages are the reverse cumulative sums of the later periods.
    """
    n = uniforms.shape[1]
    times = np.negative(uniforms)
    np.log1p(times, out=times)
    times /= -np.arange(1, n + 1, dtype=np.float64)
    ages = np.cumsum(times[:, :0:-1], axis=1)[:, ::-1]
    return TreeBlock(times=times, daughter_counts=daughter_counts(splits),
                     coalescence_ages=ages, heights=times.sum(axis=1))


def draw_tree(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one n-tip tree, in stream order: n period uniforms
    (re-drawing the measure-zero u = 0 case so every duration is strictly
    positive), then the n-1 splitting lineages, uniform over the k alive at
    event k."""
    u = rng.random(n)
    while not u.all():
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    if n > 1:
        splits = rng.integers(0, np.arange(1, n), dtype=np.int64)
    else:
        splits = np.empty(0, dtype=np.int64)
    return u, splits


def _as_block(tree: YuleTree) -> TreeBlock:
    return TreeBlock(times=tree.times[None], daughter_counts=tree.daughter_counts[None],
                     coalescence_ages=tree.coalescence_ages[None],
                     heights=np.array([tree.height]))


def sample_tree(n: int, rng: np.random.Generator) -> YuleTree:
    """Sample an n-tip pure-birth tree (the draws of `draw_tree`)."""
    if n < 1 or int(n) != n:
        raise ValueError(f"sample_tree requires an integer n >= 1, got {n}")
    u, splits = draw_tree(int(n), rng)
    block = tree_block(u[None], splits[None])
    tree = YuleTree(times=block.times[0], splits=splits,
                    daughter_counts=block.daughter_counts[0],
                    coalescence_ages=np.ascontiguousarray(block.coalescence_ages[0]))
    for arr in (tree.times, tree.splits, tree.daughter_counts, tree.coalescence_ages):
        arr.setflags(write=False)
    return tree


def block_pair_mean_exp(block: TreeBlock, y: float) -> np.ndarray:
    """Per tree, the average of exp(-y * coalescence time) over all tip pairs.

    Pairs whose most recent common ancestor is event k contribute with the
    event's age; there are exactly left*right such pairs, so each average is
    one sum over events.
    """
    n = block.n
    counts = block.daughter_counts
    pairs = counts[..., 0] * counts[..., 1]
    weighted = pairs * np.exp(-y * block.coalescence_ages)
    return weighted.sum(axis=1) / (n * (n - 1) / 2.0)


def pair_mean_exp(tree: YuleTree, y: float) -> float:
    """Average of exp(-y * coalescence time) over all tip pairs of the tree."""
    if tree.n < 2:
        raise ValueError(f"pair_mean_exp requires n >= 2, got {tree.n}")
    return float(block_pair_mean_exp(_as_block(tree), y)[0])


@dataclass(frozen=True)
class ConditionalMoments:
    """Exact mean and variance of the normalized tip average given the tree
    (and, for the jump model, given the jump placements)."""

    cond_mean: float
    cond_var: float


def block_moments_you(block: TreeBlock, params: YouParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree conditional mean and variance for the jump-free model.

    mean: delta * exp(-alpha * height). variance: 1/n + (1 - 1/n) * pair
    average of exp(-2 alpha age) - exp(-2 alpha height), which is the
    covariance-matrix average in O(n) form; it is always at least the
    single-tip share (1/n)(1 - exp(-2 alpha height)).
    """
    n = block.n
    a = params.alpha
    cond_mean = params.delta * np.exp(-a * block.heights)
    tip_term = np.exp(-2.0 * a * block.heights)
    pair = block_pair_mean_exp(block, 2.0 * a) if n > 1 else 0.0
    cond_var = 1.0 / n + (1.0 - 1.0 / n) * pair - tip_term
    return cond_mean, cond_var


def conditional_moments_you(tree: YuleTree, params: YouParams) -> ConditionalMoments:
    """Conditional moments for the jump-free model (see block_moments_you)."""
    cond_mean, cond_var = block_moments_you(_as_block(tree), params)
    return ConditionalMoments(float(cond_mean[0]), float(cond_var[0]))


@dataclass(frozen=True)
class JumpRealization:
    """Jump placements for one tree: a boolean flag per daughter slot (two
    per speciation event) and the jump variance attached to each event."""

    flags: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        if self.flags.shape != (len(self.variances), 2):
            raise ValueError("flags must have shape (events, 2) matching variances")


def jump_event_arrays(schedule: JumpSchedule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's jump probabilities and jump variances for events
    1..n-1, as two arrays. A schedule that does not cover all n-1 events is
    a configuration error."""
    ps, variances = np.array(schedule.event_params(n), dtype=np.float64).reshape(n - 1, 2).T
    return ps, variances


def sample_jumps(tree: YuleTree, schedule: JumpSchedule,
                 rng: np.random.Generator) -> JumpRealization:
    """Independent Bernoulli draws for every daughter slot of the tree.

    Always consumes exactly 2(n-1) uniforms, so downstream draws stay aligned
    across schedules with the same tree.
    """
    ps, variances = jump_event_arrays(schedule, tree.n)
    flags = rng.random((tree.n - 1, 2)) < ps[:, None]
    return JumpRealization(flags=flags, variances=variances)


def block_jump_variance(block: TreeBlock, flags: np.ndarray, variances: np.ndarray,
                        params: YouParams) -> np.ndarray:
    """Per tree, what jumps add to the conditional variance; flags is
    (B, n-1, 2) and variances (n-1,).

    Jumps are mean zero, so the conditional mean is unchanged. Each jumping
    daughter slot adds (2 alpha / sigma_a2) sigma_c2 exp(-2 alpha age) d^2 /
    n^2 to the conditional variance, d being the number of tips descending
    through that slot (d^2 merges the d diagonal and d(d-1) off-diagonal
    covariance entries the jump feeds).
    """
    n = block.n
    counts = block.daughter_counts
    flagged = flags[..., 0] * counts[..., 0] ** 2 + flags[..., 1] * counts[..., 1] ** 2
    weight = variances * np.exp(-2.0 * params.alpha * block.coalescence_ages)
    slot_sum = (flagged * weight).sum(axis=1)
    return (2.0 * params.alpha / params.sigma_a2) * slot_sum / (n * n)


def conditional_moments_youj(tree: YuleTree, jumps: JumpRealization,
                             params: YouParams) -> ConditionalMoments:
    """Conditional moments with jumps (see block_jump_variance)."""
    base = conditional_moments_you(tree, params)
    add = block_jump_variance(_as_block(tree), jumps.flags[None], jumps.variances, params)
    return ConditionalMoments(base.cond_mean, base.cond_var + float(add[0]))


def block_jump_exposure_sums(block: TreeBlock, flags: np.ndarray,
                             alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree single-lineage and shared-pair jump exposure sums.

    single: sum over jumping slots of exp(-2 alpha age) d / n.
    pair:   sum over jumping slots of exp(-2 alpha age) d(d-1) / (n(n-1)).
    Their expectations are the closed forms jump_single_lineage_mean and
    jump_pair_shared_mean (for constant schedules).
    """
    n = block.n
    if n < 2:
        return np.zeros(len(block.heights)), np.zeros(len(block.heights))
    decay = np.exp(-2.0 * alpha * block.coalescence_ages)
    d = block.daughter_counts.astype(np.float64)
    flagged_d = (flags * d).sum(axis=2)
    flagged_dd1 = (flags * (d * (d - 1.0))).sum(axis=2)
    single = (flagged_d * decay).sum(axis=1) / n
    pair = (flagged_dd1 * decay).sum(axis=1) / (n * (n - 1.0))
    return single, pair


def jump_exposure_sums(tree: YuleTree, jumps: JumpRealization,
                       alpha: float) -> tuple[float, float]:
    """Single-lineage and shared-pair jump exposure sums of one tree (see
    block_jump_exposure_sums)."""
    single, pair = block_jump_exposure_sums(_as_block(tree), jumps.flags[None], alpha)
    return float(single[0]), float(pair[0])


def sample_ybar(tree: YuleTree, params: YouParams, rng: np.random.Generator,
                jumps: JumpRealization | None = None) -> float:
    """One draw of the normalized tip average from its exact conditional
    normal distribution."""
    if jumps is None:
        m = conditional_moments_you(tree, params)
    else:
        m = conditional_moments_youj(tree, jumps, params)
    return float(rng.normal(m.cond_mean, math.sqrt(m.cond_var)))


def dump_tree(tree: YuleTree, jumps: JumpRealization | None = None) -> str:
    """Debug dump, one line per period: `index  duration  split  jumpflags`.

    Lines 1..n-1 describe speciation events (split is the 1-based index of
    the splitting lineage; jumpflags is a two-character 0/1 mask for the two
    daughter slots, or `-` when no jump realization is given). Line n is the
    final, eventless period and carries `-` placeholders.
    """
    lines = []
    for k in range(1, tree.n):
        if jumps is None:
            flag_text = "-"
        else:
            f = jumps.flags[k - 1]
            flag_text = f"{int(f[0])}{int(f[1])}"
        lines.append(f"{k}\t{tree.times[k - 1]:.17g}\t{int(tree.splits[k - 1]) + 1}\t{flag_text}")
    lines.append(f"{tree.n}\t{tree.times[-1]:.17g}\t-\t-")
    return "\n".join(lines) + "\n"
