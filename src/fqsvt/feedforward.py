"""Measurement-and-reset runtime with outcome-conditioned circuit selection.

A run alternates circuit blocks with measure-and-reset (MAR) of the
monitoring qubit. A measurement record is the tuple of those bits: even
positions (0-based) carry band bits, odd positions success bits. One
policy, `MultibandPolicy`, maps a record to the split whose block runs
next; one driver expands every branch on the identity with unnormalized
registers, so each leaf's register is the linear map of its measurement
record and its state is that map applied to the input. A sampled
trajectory is one root-to-leaf walk down that tree (`sample_trajectories`).
The two-block primitive realizes f^2(H) on outcome (0,0) and
-(1 - f^2(H)) on (1,0); it is the two-band case of the policy, and the
multi-band driver stacks rounds of it, choosing each threshold from the
measured band bits.
In H's eigenbasis both a run's channel and band dephasing are Schur
multipliers, so one `eigh` brackets their distance with no sampling.

The encoding and the state are plain arrays. `run_1fqsvt` and
`run_multiband` check both before any filter is built: a unitary of even
size (`blockenc._check_encoding`), and a unit vector on its top block.
`run_1fqsvt` also takes a stack of instances, which one expansion runs with
a stack axis on every register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import BandStructure, check_band_assumption
from .blockenc import _check_encoding
from .chebyshev import ChebyshevSeries, FilterSpec, heaviside_filter
from .linalg import SAMPLE_UNIFORMS, HermitianSpectrum, _check_state, dagger, eigh, rng
from .qsp import PhaseFactorSet, SynthesisError, synthesize_symmetric
from .qsvt import assemble_full

__all__ = [
    "MultibandPolicy",
    "TreeLeaf",
    "BranchTree",
    "KrausExtraction",
    "run_1fqsvt",
    "run_multiband",
    "sample_trajectories",
    "extract_kraus",
    "channel_distance",
    "channel_bound",
    "feedforward_query_count",
    "round_budget",
]

ANCILLA_PURITY_TOL = 1e-9


class MultibandPolicy:
    """Adaptive binary splitting over `band_count` bands.

    Replays the index arithmetic from the measured band bits: at round j
    with claimed prefix i, the split index is k = i + 2^(ell - j). Rounds
    whose split index reaches past the last gap are structural no-ops (the
    corresponding digit is known to be zero).

    Each round is the two-block primitive: the first block runs the split's
    phases plainly; after its MAR the second block repeats them with the
    garbage branch fed back. An even-degree first block leaves its garbage
    in the ancilla basis it started from, so the second block repeats it
    verbatim. An odd-degree first block leaves the completion-basis factor
    behind; on the symmetric dilation that factor is the negated one, and
    the ancilla reflection 2|0..0><0..0| - I around the second block cancels
    it exactly. The literal adjoint would not do: it is a no-op on the
    dilation, where U = U^dag.

    `phase_table` maps each split index to its symmetric `PhaseFactorSet`,
    or, for a run on a stack of encodings, to a list of them, one per
    encoding; `assemble_full` applies the circuit offsets when it builds the
    blocks.
    """

    def __init__(self, band_count: int, phase_table: dict):
        for entry in phase_table.values():
            stack = isinstance(entry, list)
            for index, psi in enumerate(entry if stack else [entry]):
                if not psi.symmetric:
                    raise ValueError(
                        "the two-block primitive requires symmetric (palindromic) phase factors"
                        + (f"; phase set {index} of the stack is not" if stack else "")
                    )
        self.band_count = band_count
        self.phase_table = phase_table
        self.ell = math.ceil(math.log2(band_count)) if band_count > 1 else 0

    def _replay(self, band_bits: tuple) -> tuple:
        """(claimed prefix, next split index or None) after the given band bits.

        A bit moves the prefix only onto a split index, so it stays below the
        band count.
        """
        i, consumed = 0, 0
        for step in (2**j for j in reversed(range(self.ell))):
            if i + step >= self.band_count:
                continue
            if consumed == len(band_bits):
                return i, i + step
            i += band_bits[consumed] * step
            consumed += 1
        return i, None

    def claimed_band(self, bits: tuple) -> int:
        return self._replay(bits[0::2])[0]

    def next_block(self, bits: tuple) -> int | None:
        """Split index of the block after the record `bits`, or None at a leaf.

        After a round's first MAR (odd length) the second block reruns the
        split chosen by the band bits before it.
        """
        return self._replay(bits[0 : len(bits) - len(bits) % 2 : 2])[1]


def _check_input(enc, state, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(encoding, state) as complex arrays, checked to be a unitary and a unit vector for it.

    With `stack`, `enc` is a stack (B, 2N, 2N) and `state` B rows, row b the
    input of encoding b, returned as a (B, N) array; a diagnostic names the
    offending item's stack index.
    """
    enc = _check_encoding(enc, stack=stack)
    n = enc.shape[-1] // 2
    if not stack:
        return enc, _unit_state(state, n)
    if len(state) != len(enc):
        raise ValueError(f"expected one input state per encoding ({len(enc)}), got {len(state)}")
    rows = []
    for index, row in enumerate(state):
        try:
            rows.append(_unit_state(row, n))
        except ValueError as err:
            raise ValueError(f"state {index} of the stack: {err}") from None
    return enc, np.array(rows).reshape(len(enc), n)


def _unit_state(state, n: int) -> np.ndarray:
    """`state` as a complex vector, checked to be a unit vector of dimension `n`."""
    state = _check_state(state)
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise ValueError("input system state must be unit norm")
    if len(state) != n:
        raise ValueError(
            f"input state has dimension {len(state)}, the encoding acts on dimension {n}"
        )
    return state


def _run_blocks(enc: np.ndarray, policy: MultibandPolicy) -> dict[tuple, np.ndarray]:
    """Expand every MAR outcome on the identity until the policy stops.

    Returns every node of the branch tree keyed by its bits, in breadth-first
    order: the root () plus both children of each executed block. A node
    holds its unnormalized (ancilla (x) system, system) register, the linear
    map of its record so far; a node without children is a leaf. Each
    split's circuit is assembled once, all in one stacked product. A block's
    input is zero outside the monitoring half its register occupies, so only
    that half's columns multiply it.

    `enc` may be a stack (B, 2N, 2N) whose item b runs item b of each phase
    table entry (a list of B sets, any degrees): one `assemble_full` call
    per split gives the item circuits, every register carries the stack
    axis first, and each block is one stacked product, which does each
    item's float operations of its one-item run.
    """
    table = policy.phase_table
    if enc.ndim == 3:
        circuits = {k: np.stack(assemble_full(enc, phis)) for k, phis in table.items()}
        odd = {k: np.array([psi.degree % 2 == 1 for psi in phis])[:, np.newaxis, np.newaxis]
               for k, phis in table.items()}
    else:
        circuits = dict(zip(table, assemble_full(enc, list(table.values()))))
        odd = {k: psi.degree % 2 == 1 for k, psi in table.items()}
    n = enc.shape[-1] // 2
    reg_dim = 2 * n

    # Ancilla reflection 2|0..0><0..0| - I within each monitoring sector, on
    # the items of odd degree; the +1 signs of a stack's even items are exact.
    reflect = np.where(np.arange(2 * reg_dim) % reg_dim < n, 1.0, -1.0)[:, np.newaxis]
    signs = {k: np.where(flags, reflect, 1.0) for k, flags in odd.items() if np.any(flags)}

    root = np.eye(reg_dim, n, dtype=complex)
    nodes = {(): np.broadcast_to(root, enc.shape[:-2] + root.shape)}
    records = [()]
    for bits in records:
        k = policy.next_block(bits)
        if k is None:
            continue
        # A round's second block feeds the garbage branch of its first MAR
        # back in and, at odd degree, runs between ancilla reflections.
        second = len(bits) % 2 == 1
        register = nodes[bits]
        half = slice(reg_dim, None) if second and bits[-1] == 1 else slice(reg_dim)
        if second and k in signs:
            full = signs[k] * (circuits[k][..., half] @ (signs[k][..., half, :] * register))
        else:
            full = circuits[k][..., half] @ register
        for bit in (0, 1):
            nodes[bits + (bit,)] = full[..., bit * reg_dim : (bit + 1) * reg_dim, :]
            records.append(bits + (bit,))
    return nodes


@dataclass
class TreeLeaf:
    """One finished branch: its record bits, unnormalized register state and weight.

    The branch failed if any success bit (odd position) is 1. `operator` is
    the branch's linear map from the system onto the register; `state` is
    it applied to the input. Each record bit ends one block of the run's one
    degree, so the branch spent `len(record)` times that degree in queries.
    """

    record: tuple
    state: np.ndarray
    probability: float
    claimed_band: int
    failed: bool
    operator: np.ndarray = field(repr=False)


def _leaves(n: int, policy: MultibandPolicy, nodes: dict, amp: np.ndarray) -> list:
    """Leaves of a branch tree in node order; each register is that leaf's operator.

    Success branches must leave the encoding ancillas in |0...0>: the
    whole register is checked, by Frobenius norm, so an operator may not
    leak in any direction, even one orthogonal to `amp`. When the registers
    carry a stack axis, `amp` is a (B, N) stack of inputs and the result is
    one leaf list per item, each leaf built as in that item's own run.
    """
    stack = amp.ndim == 2
    leaves = [[] for _ in range(len(amp) if stack else 1)]
    for bits, register in nodes.items():
        if bits + (0,) in nodes:
            continue
        failed = any(bits[1::2])
        claimed = policy.claimed_band(bits)
        for index, (operator, row) in enumerate(zip(register if stack else [register],
                                                    amp if stack else [amp])):
            # A copy frees the circuit output the register was sliced from.
            operator = operator.copy()
            total = float(np.vdot(operator, operator).real)
            head = float(np.vdot(operator[:n], operator[:n]).real)
            if not failed and total > 1e-18 and head < (1.0 - ANCILLA_PURITY_TOL) * total:
                where = f", item {index} of the stack" if stack else ""
                raise RuntimeError(
                    f"ancilla register left the |0...0> sector on a success branch "
                    f"(record {bits}{where}): purity {head / total}"
                )
            state = operator @ row
            leaves[index].append(TreeLeaf(bits, state, float(np.vdot(state, state).real),
                                          claimed, failed, operator))
    return leaves if stack else leaves[0]


def run_1fqsvt(enc: np.ndarray, phi: PhaseFactorSet | list[PhaseFactorSet], state) -> list:
    """Two-block feedforward primitive on a unit-norm system state.

    This is one round of the multi-band policy with a single split. It
    returns all four (s1, s2) branches with their operators and unnormalized
    ancilla (x) system states; the (0,0) branch carries f^2(H)|phi> and the
    (1,0) branch carries -(1 - f^2(H))|phi>.

    A stack of B instances runs in one branch expansion: `enc` of shape
    (B, 2N, 2N), `phi` a list of B symmetric phase sets of any degrees and
    `state` B rows of length N. It returns B leaf lists, each equal to its
    one-instance call's field by field. Every item is checked before any
    circuit is assembled, and a diagnostic names the item's stack index.
    """
    stack = np.ndim(enc) == 3
    enc, state = _check_input(enc, state, stack)
    if stack:
        phi = list(phi)
        if len(phi) != len(enc):
            raise ValueError(f"expected one phase set per encoding ({len(enc)}), got {len(phi)}")
        if not phi:
            return []
    policy = MultibandPolicy(2, {1: phi})
    return _leaves(enc.shape[-1] // 2, policy, _run_blocks(enc, policy), state)


@dataclass
class BranchTree:
    """Leaves of a multi-band run, each with its operator, and its rounds, budget and degree."""

    leaves: list[TreeLeaf]
    rounds: int
    round_eps: float
    degree: int

    @property
    def query_count(self) -> int:
        """Block-encoding queries along the deepest trajectory: every block runs at `degree`."""
        return self.degree * max((len(leaf.record) for leaf in self.leaves), default=0)


def _multiband_phase_table(structure: BandStructure, round_eps: float) -> tuple[dict, int]:
    """Phases for every split index 1 .. L-1, at one common degree.

    Every split is reachable: split k runs at the round of its lowest set
    bit, from the prefix of its higher bits. Each split's filter is built
    once, at its own smallest degree, by one lockstep degree search over
    every split. The table runs at the largest of these, every filter
    zero-padded to it, so each executed round costs the same queries and
    the split order does not matter. A filter is never solved again at a
    higher degree: the exchange loses accuracy far above a split's own
    minimum. The padded filters share one degree, so one batched Newton
    pass synthesizes all of them.
    """
    filters = heaviside_filter([FilterSpec(float(c), structure.delta, round_eps)
                                for c in structure.centers])
    degree = max((f.degree for f in filters), default=0)
    padded = [ChebyshevSeries(np.pad(f.coeffs, (0, degree - f.degree))) for f in filters]
    try:
        phases = synthesize_symmetric(padded)
    except SynthesisError as err:
        raise SynthesisError(f"split {err.index + 1}: {err}", err.history, err.index) from err
    return dict(enumerate(phases, start=1)), degree


def run_multiband(
    enc: np.ndarray,
    structure: BandStructure,
    round_eps: float,
    state: np.ndarray,
) -> BranchTree:
    """Adaptive multi-round band projection of an input state.

    `round_eps` is the filter budget of each round (`round_budget` splits a
    global budget); a single band runs no round and ignores it. Filters for
    all rounds share one degree so each executed round costs the same number
    of encoding queries, and each split's circuit is assembled once. Every
    branch is expanded in one pass on the identity, so each leaf carries its
    operator and its state is that operator applied to the input;
    `sample_trajectories` walks the tree.
    """
    enc, state = _check_input(enc, state)
    count = structure.band_count
    n = len(state)
    check_band_assumption(eigh(enc[:n, :n]).values, structure)

    if count < 2:
        round_eps = 0.0
    table, degree = _multiband_phase_table(structure, round_eps)
    policy = MultibandPolicy(count, table)
    leaves = _leaves(n, policy, _run_blocks(enc, policy), state)
    return BranchTree(leaves, policy.ell, round_eps, degree)


def sample_trajectories(tree: BranchTree, seed: int, trajectories: int) -> list[TreeLeaf]:
    """The leaf that each of `trajectories` sampled runs reaches, walking down `tree`.

    A node's weight is the summed probability of the leaves below it.
    Trajectory s reads row s of a (trajectories, 2 rounds) uniform block
    from the `SAMPLE_UNIFORMS` stream, entry `len(bits)` at each MAR, and
    takes outcome 0 below the 0-child's weight share. Trajectories that
    reach the same record share one `TreeLeaf` object. A count below 1
    raises a ValueError before the draw; a block that numpy cannot hold, or
    whose shape is past its array limit, raises a MemoryError.
    """
    if trajectories < 1:
        raise ValueError(f"trajectory count must be at least 1, got {trajectories}")
    by_record = {leaf.record: leaf for leaf in tree.leaves}
    weights: dict = {}
    for leaf in tree.leaves:
        for depth in range(1, len(leaf.record) + 1):
            prefix = leaf.record[:depth]
            weights[prefix] = weights.get(prefix, 0.0) + leaf.probability
    # Filled as trajectories reach each node, so a zero-weight subtree that
    # no trajectory enters never raises.
    thresholds: dict = {}
    leaves = []
    shape = (trajectories, 2 * tree.rounds)
    try:
        uniforms = rng(seed, SAMPLE_UNIFORMS).random(shape)
    except ValueError as exc:  # numpy refuses a shape past its array limit
        raise MemoryError(f"the {shape} uniform block of the sample draw: {exc}") from exc
    for row in uniforms:
        bits = ()
        while bits not in by_record:
            if bits not in thresholds:
                w0, w1 = weights[bits + (0,)], weights[bits + (1,)]
                if w0 + w1 == 0.0:
                    raise ValueError("trajectory reached a zero-norm state")
                thresholds[bits] = w0 / (w0 + w1)
            bits += (0 if row[len(bits)] < thresholds[bits] else 1,)
        leaves.append(by_record[bits])
    return leaves


@dataclass
class KrausExtraction:
    """The leaves of a tree sorted by record, each with its operator."""

    leaves: list[TreeLeaf]
    completeness_residual: float


def extract_kraus(tree: BranchTree) -> KrausExtraction:
    """The leaves of a tree, sorted by record.

    Trace preservation across all leaf operators is asserted before returning.
    """
    leaves = sorted(tree.leaves, key=lambda leaf: leaf.record)
    n = leaves[0].operator.shape[1]

    total = sum(dagger(leaf.operator) @ leaf.operator for leaf in leaves)
    residual = float(np.max(np.abs(total - np.eye(n))))
    if not residual <= 1e-6:  # a NaN entry fails too
        raise RuntimeError(
            f"leaf operators are not trace preserving (residual {residual:.3e}); "
            "this indicates a pipeline bug"
        )
    return KrausExtraction(leaves, residual)


def channel_distance(
    kraus: KrausExtraction,
    spectrum: HermitianSpectrum,
    structure: BandStructure,
) -> tuple[float, float, float]:
    """(lower, upper, residual): a bracket on the diamond distance from band dephasing.

    With V^dag K V = diag(d_K) + E_K for every leaf block K (a polynomial in
    H, so E_K is roundoff), both channels act on the diagonal parts as the
    Schur multiplier M = sum_K d_K d_K^dag - [band(i) = band(j)]. One `eigh`
    of M gives the trace norm at the maximally entangled input,
    sum |lambda(M)| / n, and Watrous' bound max_i |M|_ii (arXiv:1207.5726;
    Haagerup's bound for Schur multipliers, arXiv:0711.3636). Both move by
    residual = sum_K (2 ||E_K||_F max|d_K| + ||E_K||_F^2) to cover the E_K.
    A single band runs no block, so its sole operator is exactly [I; 0] and
    the channel is the identity, which is one-band dephasing: (0, 0, 0).
    """
    vectors = spectrum.vectors
    n = len(vectors)
    if structure.dimension != n:
        raise ValueError("spectrum dimension does not match the band structure")
    operators = [leaf.operator for leaf in kraus.leaves]
    if structure.band_count == 1 and len(operators) == 1 and np.array_equal(
            operators[0], np.eye(2 * n, n)):
        return 0.0, 0.0, 0.0
    blocks = np.concatenate([operator.reshape(-1, n, n) for operator in operators])
    rotated = dagger(vectors) @ blocks @ vectors
    diag = np.diagonal(rotated, axis1=1, axis2=2)
    off = np.linalg.norm(rotated - diag[:, :, np.newaxis] * np.eye(n), axis=(1, 2))
    residual = float(np.sum(2.0 * off * np.max(np.abs(diag), axis=1) + off**2))

    labels = np.empty(n, dtype=int)
    for j, band in enumerate(structure.bands):
        labels[band] = j
    spec = eigh(diag.T @ diag.conj() - (labels[:, np.newaxis] == labels))
    weights = np.abs(spec.values)
    lower = float(weights.sum()) / n - residual
    upper = float(np.max(np.abs(spec.vectors) ** 2 @ weights)) + residual
    return lower, upper, residual


def feedforward_query_count(band_count: int, degree: int) -> int:
    """Block-encoding queries of the full multi-band run: 2 ceil(log2 L) d."""
    if band_count < 1:
        raise ValueError("band count must be at least 1")
    return 2 * math.ceil(math.log2(band_count)) * degree


def channel_bound(band_count: int, eps: float) -> float:
    """The paper's bound 4 L log2(L) eps on the channel distance of an L-band run."""
    if band_count < 1:
        raise ValueError(f"band count must be at least 1, got {band_count}")
    return 4.0 * band_count * math.log2(band_count) * eps


def round_budget(budget: float, band_count: int) -> float:
    """Per-round filter budget eps = budget / (4 L log2 L), for L >= 2.

    A single band runs no round, so it has no per-round budget.
    """
    if band_count < 2:
        raise ValueError(f"band count must be at least 2 for a round budget, got {band_count}")
    return budget / channel_bound(band_count, 1.0)
