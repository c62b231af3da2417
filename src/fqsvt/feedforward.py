"""Measurement-and-reset runtime with outcome-conditioned circuit selection.

A run alternates circuit blocks with measure-and-reset (MAR) of the
monitoring qubit. One policy, `MultibandPolicy`, maps the bit history to
the next block descriptor (phases and initialization rule); one driver
expands every branch of a block of input columns with unnormalized
registers. Run on the identity, each leaf's register is the linear map of
its measurement record; a sampled trajectory is one root-to-leaf walk down
the tree of its input column.
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
    "MeasurementRecord",
    "BlockDescriptor",
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


@dataclass(frozen=True)
class MeasurementRecord:
    """Bit string of MAR outcomes: odd positions carry band bits, even positions success bits."""

    bits: tuple

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("record bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def band_bits(self) -> tuple:
        return self.bits[0::2]

    @property
    def success_bits(self) -> tuple:
        return self.bits[1::2]

    @property
    def failure_count(self) -> int:
        return sum(self.success_bits)

    @property
    def failed(self) -> bool:
        return self.failure_count > 0


@dataclass(frozen=True)
class BlockDescriptor:
    """One circuit block of a feedforward schedule: the phases of split `split`.

    `init_from_last_bit` applies a Pauli X to the freshly reset monitoring
    qubit when the preceding outcome was 1, feeding the garbage branch back
    into the next block. `ancilla_reflect` conjugates the block by the
    reflection 2|0..0><0..0| - I on the encoding ancillas; on the symmetric
    Hermitian dilation (where the literal adjoint is a no-op because
    U = U^dag) this is the operation that cancels the residual basis
    transformation left by an odd-degree first block.
    """

    split: int
    phases: PhaseFactorSet
    init_from_last_bit: bool = False
    ancilla_reflect: bool = False


class MultibandPolicy:
    """Adaptive binary splitting over `band_count` bands.

    Replays the index arithmetic from the measured band bits: at round j
    with claimed prefix i, the split index is k = i + 2^(ell - j). Rounds
    whose split index reaches past the last gap are structural no-ops (the
    corresponding digit is known to be zero), and expansion stops outright
    if a corrupted prefix reaches past the last band.

    Each round is the two-block primitive: the first block runs the split's
    phases plainly; after its MAR the second block repeats them with the
    garbage branch fed back. An even-degree first block leaves its garbage
    in the ancilla basis it started from, so the second block repeats it
    verbatim. An odd-degree first block leaves the completion-basis factor
    behind; on the symmetric dilation that factor is the negated one, and
    the ancilla reflection around the second block cancels it exactly.
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
        """(claimed prefix, next executable round, split index) after the given bits."""
        ell, count = self.ell, self.band_count
        i = 0
        consumed = 0
        for j in range(1, ell + 1):
            if i >= count:
                return i, None, None
            k = i + 2 ** (ell - j)
            if k >= count:
                continue
            if consumed < len(band_bits):
                i += band_bits[consumed] * 2 ** (ell - j)
                consumed += 1
            else:
                return i, j, k
        return i, None, None

    def claimed_band(self, record: MeasurementRecord) -> int:
        return self._replay(record.band_bits)[0]

    def next_block(self, bits: tuple) -> BlockDescriptor | None:
        # After a round's first MAR (odd length) the second block reruns the
        # split chosen by the band bits before it.
        second = len(bits) % 2 == 1
        _, round_j, k = self._replay(bits[0 : len(bits) - second : 2])
        if round_j is None:
            return None
        phi = self.phase_table[k]
        return BlockDescriptor(
            k,
            phi,
            init_from_last_bit=second,
            ancilla_reflect=second and phi.degree % 2 == 1,
        )


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
        desc = policy.next_block(bits)
        if desc is None:
            continue
        register, queries = nodes[bits]
        full = np.zeros((2 * reg_dim, width), dtype=complex)
        if desc.init_from_last_bit and bits[-1] == 1:
            full[reg_dim:] = register
        else:
            full[:reg_dim] = register
        circuit = circuits[desc.split]
        if desc.ancilla_reflect:
            full = reflect_signs * (circuit @ (reflect_signs * full))
        else:
            full = circuit @ full
        for bit in (0, 1):
            nodes[bits + (bit,)] = (full[bit * reg_dim : (bit + 1) * reg_dim],
                                    queries + desc.phases.degree)
            records.append(bits + (bit,))
    return nodes


@dataclass
class TreeLeaf:
    """One finished branch: its record, unnormalized register state and weight.

    `operator` is the branch's linear map from the system onto the register
    (enumerate mode of `run_multiband` only); `state` is it applied to the
    input.
    """

    record: MeasurementRecord
    state: StateVector
    probability: float
    claimed_band: int
    failed: bool
    queries: int
    operator: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "record": list(self.record.bits),
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
        record = MeasurementRecord(bits)
        state = register[:, 0] if amp is None else register @ amp
        total = float(np.vdot(state, state).real)
        head = float(np.vdot(state[:n], state[:n]).real)
        if not record.failed and total > 1e-18 and head < (1.0 - ANCILLA_PURITY_TOL) * total:
            raise RuntimeError(
                f"ancilla register left the |0...0> sector on a success branch "
                f"(record {bits}): purity {head / total}"
            )
        operator = None if amp is None else register
        leaves.append(TreeLeaf(record, StateVector(reg_qubits, state), total,
                               policy.claimed_band(record), record.failed, queries,
                               operator))
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
    by_record = {leaf.record.bits: leaf for leaf in _leaves(enc, policy, nodes)}
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
    """Per-record linear maps from the system onto the final register."""

    records: list[MeasurementRecord]
    operators: list[np.ndarray]
    claimed_bands: list[int]
    failed: list[bool]
    completeness_residual: float
    system_dim: int

    def apply_channel(self, rho: np.ndarray) -> np.ndarray:
        """System-level channel: ancillas of every branch are traced out."""
        n = self.system_dim
        out = np.zeros((n, n), dtype=complex)
        for op in self.operators:
            m_dim = op.shape[0] // n
            blocks = op.reshape(m_dim, n, op.shape[1])
            for a in range(m_dim):
                contrib = blocks[a] @ rho @ dagger(blocks[a])
                out += contrib
        return out


def extract_kraus(tree: BranchTree) -> KrausExtraction:
    """The leaf operators of an enumerate-mode tree, sorted by record.

    Trace preservation across all leaves is asserted before returning.
    """
    if tree.mode != "enumerate":
        raise ValueError("operator extraction requires an enumerate-mode tree")
    leaves = sorted(tree.leaves, key=lambda leaf: leaf.record.bits)
    operators = [leaf.operator for leaf in leaves]
    n = operators[0].shape[1]

    total = sum(dagger(op) @ op for op in operators)
    residual = float(np.max(np.abs(total - np.eye(n))))
    if residual > 1e-6:
        raise RuntimeError(
            f"leaf operators are not trace preserving (residual {residual:.3e}); "
            "this indicates a pipeline bug"
        )

    return KrausExtraction(
        records=[leaf.record for leaf in leaves],
        operators=operators,
        claimed_bands=[leaf.claimed_band for leaf in leaves],
        failed=[leaf.failed for leaf in leaves],
        completeness_residual=residual,
        system_dim=n,
    )


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
