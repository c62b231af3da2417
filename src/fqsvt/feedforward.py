"""Measurement-and-reset runtime with outcome-conditioned circuit selection.

A run alternates circuit blocks with measure-and-reset (MAR) of the
monitoring qubit. A measurement record is the tuple of those bits: even
positions (0-based) carry band bits, odd positions success bits. One
policy, `MultibandPolicy`, maps a record to the split whose block runs
next; one driver expands every branch of a block of input columns with
unnormalized registers. Run on the identity, each leaf's register is the
linear map of its measurement record; a sampled trajectory is one
root-to-leaf walk down the tree of its input column.
The two-block primitive realizes f^2(H) on outcome (0,0) and
-(1 - f^2(H)) on (1,0); it is the two-band case of the policy, and the
multi-band driver stacks rounds of it, choosing each threshold from the
measured band bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import BandStructure, check_band_assumption, exact_channel
from .blockenc import BlockEncoding, encoded_block
from .chebyshev import ChebyshevSeries, FilterSpec, heaviside_filter
from .linalg import StateVector, dagger, eigh, haar_vector, rng, trace_norm
from .qsp import PhaseFactorSet, synthesize_symmetric, to_circuit, to_su2
from .qsvt import assemble_full

__all__ = [
    "MultibandPolicy",
    "TreeLeaf",
    "BranchTree",
    "KrausExtraction",
    "run_1fqsvt",
    "run_multiband",
    "extract_kraus",
    "channel_distance",
    "feedforward_query_count",
    "round_budget",
]

ANCILLA_PURITY_TOL = 1e-9
# Residual of every split's phase synthesis on its 2d-node contract grid.
SYNTHESIS_TOL = 1e-11


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
    """

    def __init__(self, band_count: int, phase_table: dict):
        for phi in phase_table.values():
            if phi.convention != "circuit":
                raise ValueError("policy blocks use circuit-convention phases")
            if not to_su2(phi).symmetric:
                raise ValueError(
                    "the two-block primitive requires symmetric phase factors "
                    "(palindromic rotation-convention values)"
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


def _run_blocks(
    enc: BlockEncoding,
    policy: MultibandPolicy,
    columns: np.ndarray,
) -> dict[tuple, tuple[np.ndarray, int]]:
    """Expand every MAR outcome on a block of input columns until the policy stops.

    Returns every node of the branch tree keyed by its bits, in breadth-first
    order: the root () plus both children of each executed block. A node
    holds its unnormalized (ancilla (x) system, input columns) register and
    the queries spent to reach it; a node without children is a leaf. Each
    split's circuit is assembled once.
    """
    circuits = {k: assemble_full(enc, phi) for k, phi in policy.phase_table.items()}
    n, width = columns.shape
    reg_dim = n * enc.ancilla_dim
    register = np.zeros((reg_dim, width), dtype=complex)
    register[:n] = columns

    # Ancilla reflection 2|0..0><0..0| - I within each monitoring sector.
    reflect_signs = -np.ones((2 * reg_dim, 1))
    for mon in (0, 1):
        reflect_signs[mon * reg_dim : mon * reg_dim + n] = 1.0

    nodes = {(): (register, 0)}
    records = [()]
    for bits in records:
        k = policy.next_block(bits)
        if k is None:
            continue
        # A round's second block feeds the garbage branch of its first MAR
        # back in and, at odd degree, runs between ancilla reflections.
        second = len(bits) % 2 == 1
        degree = policy.phase_table[k].degree
        register, queries = nodes[bits]
        full = np.zeros((2 * reg_dim, width), dtype=complex)
        if second and bits[-1] == 1:
            full[reg_dim:] = register
        else:
            full[:reg_dim] = register
        if second and degree % 2 == 1:
            full = reflect_signs * (circuits[k] @ (reflect_signs * full))
        else:
            full = circuits[k] @ full
        for bit in (0, 1):
            nodes[bits + (bit,)] = (full[bit * reg_dim : (bit + 1) * reg_dim], queries + degree)
            records.append(bits + (bit,))
    return nodes


@dataclass
class TreeLeaf:
    """One finished branch: its record bits, unnormalized register state and weight.

    The branch failed if any success bit (odd position) is 1. `operator` is
    the branch's linear map from the system onto the register (enumerate
    mode of `run_multiband` only); `state` is it applied to the input.
    """

    record: tuple
    state: StateVector
    probability: float
    claimed_band: int
    failed: bool
    queries: int
    operator: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "record": list(self.record),
            "prob": self.probability,
            "claimed_band": self.claimed_band,
            "failed": self.failed,
        }


def _leaves(
    enc: BlockEncoding,
    policy: MultibandPolicy,
    nodes: dict,
    amp: np.ndarray | None = None,
) -> list[TreeLeaf]:
    """Leaves of a branch tree in node order; with `amp`, each register is that leaf's operator.

    Success branches must leave the encoding ancillas in |0...0>.
    """
    n = enc.encoded_dim
    reg_qubits = enc.m + int(round(math.log2(n)))
    leaves = []
    for bits, (register, queries) in nodes.items():
        if bits + (0,) in nodes:
            continue
        # A copy frees the circuit output the register was sliced from.
        register = register.copy()
        failed = any(bits[1::2])
        state = register[:, 0] if amp is None else register @ amp
        total = float(np.vdot(state, state).real)
        head = float(np.vdot(state[:n], state[:n]).real)
        if not failed and total > 1e-18 and head < (1.0 - ANCILLA_PURITY_TOL) * total:
            raise RuntimeError(
                f"ancilla register left the |0...0> sector on a success branch "
                f"(record {bits}): purity {head / total}"
            )
        operator = None if amp is None else register
        leaves.append(TreeLeaf(bits, StateVector(reg_qubits, state), total,
                               policy.claimed_band(bits), failed, queries, operator))
    return leaves


def run_1fqsvt(enc: BlockEncoding, phi: PhaseFactorSet, state: StateVector) -> list[TreeLeaf]:
    """Two-block feedforward primitive on a unit-norm system state.

    This is one round of the multi-band policy with a single split. It
    returns all four (s1, s2) branches with unnormalized ancilla (x) system
    registers; the (0,0) branch carries f^2(H)|phi> and the (1,0) branch
    carries -(1 - f^2(H))|phi>.
    """
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("input system state must be unit norm")
    policy = MultibandPolicy(2, {1: phi})
    return _leaves(enc, policy, _run_blocks(enc, policy, state.amplitudes[:, np.newaxis]))


@dataclass
class BranchTree:
    """Leaves of a multi-band run with its band structure, budget and filter degree.

    In enumerate mode every leaf also carries its operator. In sample mode
    `leaves` lists the leaf each trajectory reached; trajectories that reach
    the same record share one `TreeLeaf` object.
    """

    leaves: list[TreeLeaf]
    structure: BandStructure
    rounds: int
    round_eps: float
    degree: int
    mode: str = "enumerate"

    @property
    def query_count(self) -> int:
        """Block-encoding queries along the deepest trajectory."""
        return max((leaf.queries for leaf in self.leaves), default=0)

    def to_json(self) -> dict:
        return {
            "L": self.structure.band_count,
            "rounds": self.rounds,
            "round_eps": self.round_eps,
            "degree": self.degree,
            "leaves": [leaf.to_json() for leaf in self.leaves],
        }


def _multiband_phase_table(structure: BandStructure, round_eps: float) -> tuple[dict, int]:
    """Circuit phases for every split index 1 .. L-1, at one common degree.

    Every split is reachable: split k runs at the round of its lowest set
    bit, from the prefix of its higher bits. Each split's filter is built
    once, at its own smallest degree. The table runs at the largest of
    these, every filter zero-padded to it, so each executed round costs the
    same queries and the split order does not matter. A filter is never
    solved again at a higher degree: the exchange loses accuracy far above
    a split's own minimum.
    """
    filters = {
        k: heaviside_filter(FilterSpec(float(structure.centers[k - 1]), structure.delta, round_eps))
        for k in range(1, structure.band_count)
    }
    degree = max((f.degree for f in filters.values()), default=0)
    table = {
        k: to_circuit(synthesize_symmetric(
            ChebyshevSeries(np.pad(f.coeffs, (0, degree - f.degree)), "even"), SYNTHESIS_TOL))
        for k, f in filters.items()
    }
    return table, degree


def run_multiband(
    enc: BlockEncoding,
    structure: BandStructure,
    round_eps: float,
    state: StateVector,
    mode: str = "enumerate",
    seed: int = 0,
    trajectories: int = 1,
) -> BranchTree:
    """Adaptive multi-round band projection of an input state.

    `round_eps` is the filter budget of each round (`round_budget` splits a
    global budget); a single band runs no round and ignores it. Filters for
    all rounds share one degree so each executed round costs the same number
    of encoding queries, and each split's circuit is assembled once.
    Enumerate mode expands every branch in one pass on the identity, so each
    leaf carries its operator and its state is that operator applied to the
    input. Sample mode expands the tree of the input column once, and
    trajectory s (of `trajectories`) walks down it with one uniform from
    `rng(seed, s)` per MAR, taking outcome 0 below the 0-child's weight share.
    """
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("input system state must be unit norm")
    count = structure.band_count
    n = enc.encoded_dim
    check_band_assumption(eigh(encoded_block(enc)).values, structure)

    if count < 2:
        round_eps = 0.0
    table, degree = _multiband_phase_table(structure, round_eps)
    policy = MultibandPolicy(count, table)

    if mode == "enumerate":
        nodes = _run_blocks(enc, policy, np.eye(n, dtype=complex))
        leaves = _leaves(enc, policy, nodes, state.amplitudes)
        return BranchTree(leaves, structure, policy.ell, round_eps, degree, mode)

    nodes = _run_blocks(enc, policy, state.amplitudes[:, np.newaxis])
    by_record = {leaf.record: leaf for leaf in _leaves(enc, policy, nodes)}
    # Filled as trajectories reach each node, so a zero-weight subtree that
    # no trajectory enters never raises.
    thresholds: dict = {}
    leaves = []
    for s in range(trajectories):
        gen = rng(seed, s)
        bits = ()
        while bits not in by_record:
            if bits not in thresholds:
                w0, w1 = (float(np.vdot(h, h).real)
                          for h, _ in (nodes[bits + (0,)], nodes[bits + (1,)]))
                if w0 + w1 == 0.0:
                    raise ValueError("trajectory reached a zero-norm state")
                thresholds[bits] = w0 / (w0 + w1)
            bits += (0 if gen.random() < thresholds[bits] else 1,)
        leaves.append(by_record[bits])
    return BranchTree(leaves, structure, policy.ell, round_eps, degree, mode)


@dataclass
class KrausExtraction:
    """The leaves of an enumerate-mode tree sorted by record, each with its operator."""

    leaves: list[TreeLeaf]
    completeness_residual: float

    @property
    def system_dim(self) -> int:
        return self.leaves[0].operator.shape[1]

    def apply_channel(self, rho: np.ndarray) -> np.ndarray:
        """System-level channel: ancillas of every branch are traced out."""
        n = self.system_dim
        out = np.zeros((n, n), dtype=complex)
        for leaf in self.leaves:
            for block in leaf.operator.reshape(-1, n, n):
                out += block @ rho @ dagger(block)
        return out


def extract_kraus(tree: BranchTree) -> KrausExtraction:
    """The leaves of an enumerate-mode tree, sorted by record.

    Trace preservation across all leaf operators is asserted before returning.
    """
    if tree.mode != "enumerate":
        raise ValueError("operator extraction requires an enumerate-mode tree")
    leaves = sorted(tree.leaves, key=lambda leaf: leaf.record)
    n = leaves[0].operator.shape[1]

    total = sum(dagger(leaf.operator) @ leaf.operator for leaf in leaves)
    residual = float(np.max(np.abs(total - np.eye(n))))
    if residual > 1e-6:
        raise RuntimeError(
            f"leaf operators are not trace preserving (residual {residual:.3e}); "
            "this indicates a pipeline bug"
        )
    return KrausExtraction(leaves, residual)


def channel_distance(
    kraus: KrausExtraction,
    exact: list[np.ndarray],
    samples: int = 32,
    seed: int = 0,
) -> float:
    """Sampled lower-bound proxy for the channel distance in trace norm.

    The maximum runs over every eigenbasis pure state of the exact
    projectors plus `samples` random pure states; the true induced norm can
    only be larger, so the value reported here is a documented lower bound.
    """
    n = kraus.system_dim
    inputs = []
    for p in exact:
        spec = eigh(p)
        for col in range(n):
            if spec.values[col] > 0.5:
                inputs.append(spec.vectors[:, col])
    gen = rng(seed, 0)
    inputs.extend(haar_vector(gen, n) for _ in range(samples))

    worst = 0.0
    for phi in inputs:
        rho = np.outer(phi, phi.conj())
        worst = max(worst, trace_norm(kraus.apply_channel(rho) - exact_channel(rho, exact)))
    return worst


def feedforward_query_count(band_count: int, degree: int) -> int:
    """Block-encoding queries of the full multi-band run: 2 ceil(log2 L) d."""
    if band_count < 1:
        raise ValueError("band count must be at least 1")
    return 2 * math.ceil(math.log2(band_count)) * degree


def round_budget(budget: float, band_count: int, split_constant: float = 4.0) -> float:
    """Per-round filter budget eps = budget / (split_constant L log2 L), for L >= 2."""
    return budget / (split_constant * band_count * math.log2(band_count))
