"""Pure-birth tree sampling and exact per-tree conditional moments.

A tree over n tips is stored event-indexed rather than pointer-shaped: the n
inter-event periods (the k-th lasting an Exp(k) time, stem included) plus, for
each of the n-1 speciation events, the index of the lineage that split. That
is enough to answer every aggregate query the bounds need: tree height, the
per-event daughter tip counts, and the age of each event measured back from
the present.

There is one API, and it works on blocks: arrays whose leading axis runs
over B trees with the same tip count (a `TreeBlock`), with no Python loop
over trees or events (only over the pointer-doubling rounds below, about
log2 of the slot-tree depth). `sample_tree` draws and builds a block,
`sample_jumps` draws its jump flags, and each conditional quantity has one
kernel. The Monte Carlo harness calls them once per block of replicates; a
single tree is a block with B = 1.

Every kernel takes its arrays from a `BlockBuffers`, one grow-only byte
buffer per key: what a block hands on (the `TreeBlock` fields and the jump
flags) goes under named keys and lasts until the next block is drawn into
the same buffers, and temporaries go under a few numbered keys that all
kernels share and last only until the kernel that asked for them returns.
The harness keeps one `BlockBuffers` for all the blocks of a chunk, so a
block reuses the previous block's pages instead of faulting in fresh ones;
every other caller gets a fresh one per call, through the same code.

Daughter counts come from the slot tree. Event k keeps the split lineage in
its slot splits[k-1] and puts the new lineage in slot k, so slot k hangs below
slot splits[k-1] in a random recursive tree on the slots 0..n-1, whose depth
is about e ln n. The right daughter of event k carries exactly the tips of
slot k's subtree; the left daughter carries slot splits[k-1] itself plus the
subtrees of that slot's children created after event k. Subtree sizes come
from pointer doubling: in round r every slot adds in the partial sizes of its
descendants exactly 2^r levels down, then every jump pointer moves twice as
far up, so a slot tree of depth D takes ceil(log2(D + 1)) rounds rather than
D level steps. The sizes are int64 sums, so they are exact.

Conditional on a tree (and on jump placements), the normalized tip average is
exactly normal, so sampling it needs no per-tip path simulation: one normal
draw from the exact conditional mean and variance below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import JumpSchedule, YouParams


class BlockBuffers:
    """The work arrays of the block kernels, kept from one block to the next.

    A kernel asks for an array by key, shape and dtype, and gets a view of
    the key's byte buffer, uninitialised as far as the kernel is concerned.
    A byte buffer grows to the largest request it has met and then serves
    every later one, each shape and dtype through one cached view, so a
    lookup costs one dict get.

    A named key holds what a block hands on: `times`, `splits`, `ages` and
    `counts` (the `TreeBlock` fields) and `flags`. Each name has one owner,
    so its array stays intact until its kernel runs again, on the next
    block. A numbered key holds a temporary that every kernel shares, so it
    is valid only inside the kernel that asked for it: a kernel hands none
    on, and holds none across a call to another kernel. The kernels use
    0 to 4 (`daughter_counts` all five, the others at most three).
    """

    def __init__(self) -> None:
        self._raw: dict[str | int, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def array(self, key: str | int, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self._views.get((key, shape, dtype))
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            raw = self._raw.get(key)
            if raw is None or raw.nbytes < nbytes:
                # let go of the old bytes, and every view of them, before taking more
                self._views = {other: v for other, v in self._views.items() if other[0] != key}
                self._raw[key] = raw = None
                raw = self._raw[key] = np.empty(nbytes, np.uint8)
            view = self._views[key, shape, dtype] = raw[:nbytes].view(dtype).reshape(shape)
        return view


@dataclass(frozen=True)
class TreeBlock:
    """B event-indexed pure-birth trees with n tips each, row b for tree b.

    times[b, k-1] is the duration of the period with k alive lineages; the
    height heights[b] is the full sum (the final period, with n lineages,
    counts). splits[b, k-1] is the 0-based index, among the k alive
    lineages, of the one that split at event k. daughter_counts[b, k-1]
    holds the number of tips that descend through each of event k's two
    daughter edges, and coalescence_ages[b, k-1] the time from the present
    back to event k. Shapes: times (B, n), splits and coalescence_ages
    (B, n-1), daughter_counts (B, n-1, 2), heights (B,).

    A block that `sample_tree` drew into kept `BlockBuffers` holds views of
    them: it is valid only until the next block is drawn into the same
    buffers.
    """

    times: np.ndarray
    splits: np.ndarray
    daughter_counts: np.ndarray
    coalescence_ages: np.ndarray
    heights: np.ndarray

    @property
    def n(self) -> int:
        return self.times.shape[1]


def _parent_slots(splits: np.ndarray, out: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The flat slot numbers of the split lineages' slots, splits plus n times
    the row, into the contiguous (B, n-1) `out`; `step` is left holding the
    row offsets. A ufunc that broadcasts an operand allocates NumPy iterator
    buffers (64 KB per operand), so np.copyto broadcasts the offsets into
    `step` and the add sees two arrays of one shape."""
    b, m = splits.shape
    np.copyto(step, np.arange(0, b * (m + 1), m + 1)[:, None])
    return np.add(splits, step, out=out)


def daughter_counts(splits: np.ndarray, buffers: BlockBuffers | None = None) -> np.ndarray:
    """Daughter tip counts of a block of trees: (B, n-1) splits give
    (B, n-1, 2) int64 counts, left (the split lineage's slot) then right (the
    new slot), in `buffers` (fresh ones if None).

    The B slot trees are numbered flat, followed by one sentinel slot.
    Subtree sizes come from pointer doubling. Before round r, jump[s] is
    slot s's 2^r-th ancestor (the sentinel if it has none) and size[s]
    counts s's descendants fewer than 2^r levels down, itself included.
    Round r adds each size[s] to size[jump[s]], which extends every count to
    2^(r+1) levels, then sets jump = jump[jump]. The loop stops when every
    pointer is the sentinel: ceil(log2(D + 1)) rounds on a tree of depth D
    (4 or 5 on random trees at n = 200 and 5000, 13 on an n = 5000
    caterpillar). Sizes are int64 and none exceeds n, so the counts are
    exact. A left count is 1 plus the subtree sizes of the new slot's later
    siblings.
    """
    buffers = BlockBuffers() if buffers is None else buffers
    b, m = splits.shape
    n = m + 1
    total = b * n
    jump = buffers.array(0, (total + 1,), np.intp)
    spare = buffers.array(1, (total + 1,), np.intp)
    size = buffers.array(2, (total + 1,), np.int64)
    below = buffers.array(3, (total + 1,), np.int64)
    slots = jump[:total].reshape(b, n)
    slots[:, 0] = total
    slots[:, 1:] = _parent_slots(splits, spare[:b * m].reshape(b, m), below[:b * m].reshape(b, m))
    jump[total] = total
    size.fill(1)
    while jump.min() < total:
        np.copyto(below, size)
        np.add.at(size, jump, below)
        size[total] = 0  # drop the roots' sizes, so every size stays at most n
        # mode="clip" only skips the buffered copy that mode="raise" makes;
        # every pointer is in range
        np.take(jump, jump, out=spare, mode="clip")
        jump, spare = spare, jump

    # Children grouped by parent, in event order within a group: one sort of
    # the unique keys parent * 2^shift + child (32 bits wide below 2^16
    # slots, which every engine block is). The children of the parents
    # before parent q hold sum(size[:q] - 1) slots, so the running sum of
    # the grouped child sizes, subtracted from that sum up to and including
    # q, plus 1, leaves 1 plus the sizes of the later siblings. The pointer
    # and size buffers are reused for the steps.
    counts = buffers.array("counts", (b, m, 2), np.int64)
    counts[:, :, 1] = size[:total].reshape(b, n)[:, 1:]
    shift = total.bit_length()
    step = spare[:b * m].reshape(b, m)
    wide = _parent_slots(splits, jump[:b * m].reshape(b, m), step)
    wide <<= shift
    wide += step  # a child's slot is its row's offset, still in step,
    np.copyto(step, np.arange(1, n))
    wide += step  # plus its event number
    keys = buffers.array(3, (b * m,), np.uint32 if shift <= 16 else np.uint64)
    np.copyto(keys, wide.reshape(-1), casting="unsafe")
    keys.sort()
    parent = np.right_shift(keys, shift, out=spare[:b * m], casting="unsafe")
    child = np.bitwise_and(keys, (1 << shift) - 1, out=jump[:b * m], casting="unsafe")
    through = np.take(size, child, out=below[:b * m], mode="clip")
    np.cumsum(through, out=through)
    size -= 1
    np.cumsum(size, out=size)
    size += 1
    left = np.take(size, parent, out=buffers.array(4, (b * m,), np.int64), mode="clip")
    left -= through
    size[child] = left
    counts[:, :, 0] = size[:total].reshape(b, n)[:, 1:]
    return counts


def _draw_splits(n: int, rng: np.random.Generator, rows: int,
                 buffers: BlockBuffers) -> np.ndarray:
    """The (rows, n-1) split indices, column k-1 uniform on 0..k-1, into
    `buffers`: exactly the values of
    rng.integers(0, np.arange(1, n), size=(rows, n - 1), dtype=np.int64), with
    the generator left in exactly the state that call leaves.

    That call runs Lemire's multiply-and-reject per value on 32-bit draws,
    and PCG64 hands those out as the low, then the high half of each 64-bit
    word, keeping an unused high half for the next draw. Here the m values
    that need a draw (the bound-1 column needs none) take the halves of
    ceil(m/2) raw words in that order as whole arrays: half h times bound k
    is a 64-bit product whose high word is the value. A value is rejected
    only if the product's low word is below (2^32 - k) mod k, which is below
    k, so that remainder is taken for the few low words below k only.

    The block stands whole if no value is rejected; otherwise the generator
    goes back to its saved state and `rng.integers` draws all of it, as it
    does when the generator is not PCG64 or already holds a spare half, or
    when a bound reaches 2^32.
    """
    splits = buffers.array("splits", (rows, n - 1), np.int64)
    width = n - 2
    m = rows * width
    bits = getattr(rng, "bit_generator", None)
    if m > 0 and type(bits) is np.random.PCG64 and n - 1 < 2**32:
        saved = bits.state
        if not saved["has_uint32"]:
            words = bits.random_raw((m + 1) // 2)
            halves = buffers.array(0, (rows, width), np.uint64)
            flat = halves.reshape(-1)
            np.bitwise_and(words, 0xFFFFFFFF, out=flat[0::2])
            np.right_shift(words[:m // 2], 32, out=flat[1::2])
            bounds = np.arange(2, n, dtype=np.uint64)
            product = splits.view(np.uint64)[:, 1:]
            np.multiply(halves, bounds, out=product)
            low = np.bitwise_and(product, 0xFFFFFFFF, out=halves)
            product >>= 32
            splits[:, 0] = 0
            suspect = np.less(low, bounds, out=buffers.array(1, low.shape, np.bool_))
            rejected = False
            if suspect.any():
                at = np.flatnonzero(suspect)
                k = bounds[at % width]
                rejected = (low.reshape(-1)[at] < (2**32 - k) % k).any()
            if not rejected:
                # NumPy keeps the last high half it took, spent or not
                state = bits.state
                state["has_uint32"] = m % 2
                state["uinteger"] = int(words[-1] >> 32)
                bits.state = state
                return splits
            bits.state = saved
    splits[...] = rng.integers(0, np.arange(1, n), size=(rows, n - 1), dtype=np.int64)
    return splits


def sample_tree(n: int, rng: np.random.Generator, rows: int = 1,
                buffers: BlockBuffers | None = None) -> TreeBlock:
    """Sample `rows` n-tip pure-birth trees as one block, into `buffers`
    (fresh ones if None).

    The draws, in stream order: the (rows, n) period uniforms (re-drawing
    the measure-zero u = 0 cases, in row-major order, so every duration is
    strictly positive), then the (rows, n-1) splitting lineages, uniform over
    the k alive at event k: the values and end state of one
    rng.integers(0, np.arange(1, n), size=(rows, n - 1)) call, computed from
    raw PCG64 words for the whole block or drawn by that call for all of it.
    The k-th period is the inverse-CDF Exp(k) duration -log1p(-u)/k; event
    ages are the reverse cumulative sums of the later periods.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"sample_tree requires an integer n >= 1, got {n}")
    n = int(n)
    buffers = BlockBuffers() if buffers is None else buffers
    times = rng.random(out=buffers.array("times", (rows, n)))
    while not times.all():
        zero = times == 0.0
        times[zero] = rng.random(int(zero.sum()))
    splits = _draw_splits(n, rng, rows, buffers)
    np.negative(times, out=times)
    np.log1p(times, out=times)
    times /= -np.arange(1, n + 1, dtype=np.float64)
    ages = np.cumsum(times[:, :0:-1], axis=1,
                     out=buffers.array("ages", (rows, n - 1)))[:, ::-1]
    return TreeBlock(times=times, splits=splits,
                     daughter_counts=daughter_counts(splits, buffers),
                     coalescence_ages=ages, heights=times.sum(axis=1))


def jump_event_arrays(schedule: JumpSchedule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule's jump probabilities and jump variances for events
    1..n-1, as two arrays. A schedule that does not cover all n-1 events is
    a configuration error."""
    ps, variances = np.array(schedule.event_params(n), dtype=np.float64).reshape(n - 1, 2).T
    return ps, variances


def sample_jumps(jump_ps: np.ndarray, rng: np.random.Generator, rows: int = 1,
                 buffers: BlockBuffers | None = None) -> np.ndarray:
    """Jump flags of `rows` trees, (rows, n-1, 2): an independent Bernoulli
    draw for each of the two daughter slots of every event, with the
    per-event probabilities jump_ps (n-1,). Drawn into `buffers` (fresh ones
    if None), where the flags are valid until the next draw.

    Always consumes exactly 2(n-1) uniforms per row, so downstream draws stay
    aligned across schedules.
    """
    buffers = BlockBuffers() if buffers is None else buffers
    shape = (rows, len(jump_ps), 2)
    uniforms = rng.random(out=buffers.array(0, shape))
    flags = buffers.array("flags", shape, np.bool_)
    # one flat comparison per row: an inner loop of length 2(n-1), not 2
    np.less(uniforms.reshape(rows, -1), np.repeat(jump_ps, 2), out=flags.reshape(rows, -1))
    return flags


def pair_mean_exp(block: TreeBlock, y: float,
                  buffers: BlockBuffers | None = None) -> np.ndarray:
    """Per tree, the average of exp(-y * coalescence time) over all tip pairs.

    Pairs whose most recent common ancestor is event k contribute with the
    event's age; there are exactly left*right such pairs, so each average is
    one sum over events. The per-event terms go into `buffers` (fresh ones
    if None).
    """
    n = block.n
    if n < 2:
        raise ValueError(f"pair_mean_exp requires n >= 2, got {n}")
    buffers = BlockBuffers() if buffers is None else buffers
    counts, ages = block.daughter_counts, block.coalescence_ages
    pairs = np.multiply(counts[..., 0], counts[..., 1],
                        out=buffers.array(0, ages.shape, np.int64))
    weighted = np.multiply(-y, ages, out=buffers.array(1, ages.shape))
    np.exp(weighted, out=weighted)
    np.multiply(pairs, weighted, out=weighted)
    return weighted.sum(axis=1) / (n * (n - 1) / 2.0)


def conditional_moments_you(block: TreeBlock, params: YouParams,
                            buffers: BlockBuffers | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
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
    pair = pair_mean_exp(block, 2.0 * a, buffers) if n > 1 else 0.0
    cond_var = 1.0 / n + (1.0 - 1.0 / n) * pair - tip_term
    return cond_mean, cond_var


def conditional_moments_youj(block: TreeBlock, flags: np.ndarray, variances: np.ndarray,
                             params: YouParams, buffers: BlockBuffers | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree conditional mean and variance with jumps; flags is
    (B, n-1, 2) and variances (n-1,).

    Jumps are mean zero, so the conditional mean is the jump-free one. Each
    jumping daughter slot adds (2 alpha / sigma_a2) sigma_c2 exp(-2 alpha
    age) d^2 / n^2 to the conditional variance, d being the number of tips
    descending through that slot (d^2 merges the d diagonal and d(d-1)
    off-diagonal covariance entries the jump feeds).
    """
    n = block.n
    buffers = BlockBuffers() if buffers is None else buffers
    cond_mean, cond_var = conditional_moments_you(block, params, buffers)
    counts, ages = block.daughter_counts, block.coalescence_ages
    flagged = np.square(counts[..., 0], out=buffers.array(0, ages.shape, np.int64))
    flagged *= flags[..., 0]
    right = np.square(counts[..., 1], out=buffers.array(1, ages.shape, np.int64))
    right *= flags[..., 1]
    flagged += right
    weight = np.multiply(-2.0 * params.alpha, ages, out=buffers.array(2, ages.shape))
    np.exp(weight, out=weight)
    weight *= variances
    np.multiply(flagged, weight, out=weight)
    slot_sum = weight.sum(axis=1)
    return cond_mean, cond_var + (2.0 * params.alpha / params.sigma_a2) * slot_sum / (n * n)


def jump_exposure_sums(block: TreeBlock, flags: np.ndarray, alpha: float,
                       buffers: BlockBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree single-lineage and shared-pair jump exposure sums.

    single: sum over jumping slots of exp(-2 alpha age) d / n.
    pair:   sum over jumping slots of exp(-2 alpha age) d(d-1) / (n(n-1)).
    Their expectations are the closed forms jump_single_lineage_mean and
    jump_pair_shared_mean (for constant schedules). The flagged d and d(d-1)
    are exact integers in float64, so the order they are formed in does not
    matter.
    """
    n = block.n
    if n < 2:
        return np.zeros(len(block.heights)), np.zeros(len(block.heights))
    buffers = BlockBuffers() if buffers is None else buffers
    counts, ages = block.daughter_counts, block.coalescence_ages
    decay = np.multiply(-2.0 * alpha, ages, out=buffers.array(1, ages.shape))
    np.exp(decay, out=decay)
    slots = np.multiply(flags, counts, out=buffers.array(0, counts.shape))
    per_event = np.sum(slots, axis=2, out=buffers.array(2, ages.shape))
    per_event *= decay
    single = per_event.sum(axis=1) / n
    np.subtract(counts, 1.0, out=slots)
    slots *= counts
    slots *= flags
    np.sum(slots, axis=2, out=per_event)
    per_event *= decay
    pair = per_event.sum(axis=1) / (n * (n - 1.0))
    return single, pair


def dump_tree(block: TreeBlock, flags: np.ndarray | None = None) -> str:
    """Debug dump of the block's first tree, one line per period:
    `index  duration  split  jumpflags`.

    Lines 1..n-1 describe speciation events (split is the 1-based index of
    the splitting lineage; jumpflags is a two-character 0/1 mask for the two
    daughter slots, from row 0 of the (B, n-1, 2) flags, or `-` when no
    flags are given). Line n is the final, eventless period and carries `-`
    placeholders.
    """
    n = block.n
    times, splits = block.times[0], block.splits[0]
    lines = []
    for k in range(1, n):
        if flags is None:
            flag_text = "-"
        else:
            f = flags[0, k - 1]
            flag_text = f"{int(f[0])}{int(f[1])}"
        lines.append(f"{k}\t{times[k - 1]:.17g}\t{int(splits[k - 1]) + 1}\t{flag_text}")
    lines.append(f"{n}\t{times[-1]:.17g}\t-\t-")
    return "\n".join(lines) + "\n"
