"""Measurement-and-reset runtime with outcome-conditioned circuit selection.

A run alternates circuit blocks with measure-and-reset (MAR) of the
monitoring qubit. One policy, `MultibandPolicy`, maps the bit history to
the next block descriptor (phases and initialization rule); one driver
either enumerates every branch with unnormalized states or samples one
trajectory per seed. The two-block primitive realizes f^2(H) on outcome
(0,0) and -(1 - f^2(H)) on (1,0); it is the two-band case of the policy,
and the multi-band driver stacks rounds of it, choosing each threshold
from the measured band bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import BandStructure, check_band_assumption
from .blockenc import BlockEncoding, encoded_block
from .chebyshev import FilterSpec, heaviside_filter
from .linalg import StateVector, dagger, eigh, haar_vector, rng, trace_norm
from .qsp import PhaseFactorSet, synthesize_symmetric, to_circuit, to_su2
from .qsvt import assemble_full

__all__ = [
    "MeasurementRecord",
    "BranchNode",
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


@dataclass
class BranchNode:
    """One measurement branch: record, unnormalized register state, and its weight."""

    record: MeasurementRecord
    state: StateVector
    probability: float


@dataclass(frozen=True)
class BlockDescriptor:
    """One circuit block of a feedforward schedule.

    `init_from_last_bit` applies a Pauli X to the freshly reset monitoring
    qubit when the preceding outcome was 1, feeding the garbage branch back
    into the next block. `ancilla_reflect` conjugates the block by the
    reflection 2|0..0><0..0| - I on the encoding ancillas; on the symmetric
    Hermitian dilation (where the literal adjoint is a no-op because
    U = U^dag) this is the operation that cancels the residual basis
    transformation left by an odd-degree first block.
    """

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
        if len(bits) % 2 == 1:
            phi = self._current_phase(bits)
            return BlockDescriptor(
                phi,
                init_from_last_bit=True,
                ancilla_reflect=phi.degree % 2 == 1,
            )
        _, round_j, k = self._replay(bits[0::2])
        if round_j is None:
            return None
        return BlockDescriptor(self.phase_table[k], init_from_last_bit=False)

    def _current_phase(self, bits: tuple) -> PhaseFactorSet:
        _, _, k = self._replay(bits[0:-1:2])
        return self.phase_table[k]


class _BlockCache:
    """Assembled circuit matrices keyed by phase values."""

    def __init__(self, enc: BlockEncoding):
        self.enc = enc
        self._cache: dict = {}

    def matrix(self, desc: BlockDescriptor) -> np.ndarray:
        key = desc.phases.values.tobytes()
        if key not in self._cache:
            self._cache[key] = assemble_full(self.enc, desc.phases)
        return self._cache[key]


@dataclass
class _Branch:
    bits: tuple
    register: np.ndarray  # ancilla (x) system, unnormalized
    queries: int


def _run_blocks(
    enc: BlockEncoding,
    policy: MultibandPolicy,
    system: np.ndarray,
    mode: str,
    seed: int,
    stream: int = 0,
    cache: _BlockCache | None = None,
) -> list[_Branch]:
    """Drive blocks and MARs until the policy stops, in enumerate or sample mode."""
    n = enc.encoded_dim
    reg_dim = n * enc.ancilla_dim
    register = np.zeros(reg_dim, dtype=complex)
    register[:n] = system
    cache = cache or _BlockCache(enc)
    gen = rng(seed, stream) if mode == "sample" else None

    # Ancilla reflection 2|0..0><0..0| - I within each monitoring sector.
    reflect_signs = -np.ones(2 * reg_dim)
    for mon in (0, 1):
        reflect_signs[mon * reg_dim : mon * reg_dim + n] = 1.0

    frontier = [_Branch((), register, 0)]
    done: list[_Branch] = []
    while frontier:
        next_frontier: list[_Branch] = []
        for branch in frontier:
            desc = policy.next_block(branch.bits)
            if desc is None:
                done.append(branch)
                continue
            full = np.zeros(2 * reg_dim, dtype=complex)
            if desc.init_from_last_bit and branch.bits and branch.bits[-1] == 1:
                full[reg_dim:] = branch.register
            else:
                full[:reg_dim] = branch.register
            if desc.ancilla_reflect:
                full = reflect_signs * (cache.matrix(desc) @ (reflect_signs * full))
            else:
                full = cache.matrix(desc) @ full
            halves = (full[:reg_dim], full[reg_dim:])
            queries = branch.queries + desc.phases.degree
            if mode == "enumerate":
                for bit in (0, 1):
                    next_frontier.append(_Branch(branch.bits + (bit,), halves[bit], queries))
            else:
                weights = [float(np.vdot(h, h).real) for h in halves]
                total = weights[0] + weights[1]
                if total == 0.0:
                    raise ValueError("trajectory reached a zero-norm state")
                bit = 0 if gen.random() < weights[0] / total else 1
                next_frontier.append(_Branch(branch.bits + (bit,), halves[bit], queries))
        frontier = next_frontier
    return done


def _check_ancilla_purity(register: np.ndarray, n: int, context: str):
    total = float(np.vdot(register, register).real)
    if total <= 1e-18:
        return
    head = float(np.vdot(register[:n], register[:n]).real)
    if head < (1.0 - ANCILLA_PURITY_TOL) * total:
        raise RuntimeError(
            f"ancilla register left the |0...0> sector on a success branch "
            f"({context}): purity {head / total}"
        )


def run_1fqsvt(
    enc: BlockEncoding,
    phi: PhaseFactorSet,
    state: StateVector,
    mode: str = "enumerate",
    seed: int = 0,
    stream: int = 0,
) -> list[BranchNode]:
    """Two-block feedforward primitive on a unit-norm system state.

    This is one round of the multi-band policy with a single split. Enumerate
    mode returns all four (s1, s2) branches with unnormalized ancilla (x)
    system registers; the (0,0) branch carries f^2(H)|phi> and the (1,0)
    branch carries -(1 - f^2(H))|phi>. Sample mode returns the single branch
    realized under the seed.
    """
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("input system state must be unit norm")
    policy = MultibandPolicy(2, {1: phi})
    branches = _run_blocks(enc, policy, state.amplitudes, mode, seed, stream)
    n = enc.encoded_dim
    out = []
    for branch in branches:
        if branch.bits[-1] == 0:
            _check_ancilla_purity(branch.register, n, f"record {branch.bits}")
        reg_qubits = enc.m + int(round(math.log2(n)))
        out.append(
            BranchNode(
                MeasurementRecord(branch.bits),
                StateVector(reg_qubits, branch.register),
                float(np.vdot(branch.register, branch.register).real),
            )
        )
    return out


@dataclass
class TreeLeaf:
    record: MeasurementRecord
    state: StateVector
    probability: float
    claimed_band: int
    failed: bool
    queries: int

    def to_json(self) -> dict:
        return {
            "record": list(self.record.bits),
            "prob": self.probability,
            "claimed_band": self.claimed_band,
            "failed": self.failed,
        }


@dataclass
class BranchTree:
    """Leaves of a multi-band run plus the context needed to replay it."""

    leaves: list[TreeLeaf]
    structure: BandStructure
    rounds: int
    round_eps: float
    degree: int
    encoding: BlockEncoding = field(repr=False)
    policy: MultibandPolicy = field(repr=False)
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


def _multiband_phase_table(
    structure: BandStructure,
    round_eps: float,
    synthesis_tol: float,
) -> tuple[dict, int]:
    """Circuit phases for every reachable split index, at one common degree."""
    count = structure.band_count
    ell = math.ceil(math.log2(count))
    reachable: set = set()
    prefixes = {0}
    for j in range(1, ell + 1):
        step = 2 ** (ell - j)
        next_prefixes = set()
        for i in prefixes:
            if i >= count:
                continue
            k = i + step
            if k >= count:
                next_prefixes.add(i)
            else:
                reachable.add(k)
                next_prefixes.update((i, k))
        prefixes = next_prefixes

    specs = {
        k: FilterSpec(float(structure.centers[k - 1]), structure.delta, round_eps)
        for k in sorted(reachable)
    }
    filters = {k: heaviside_filter(spec) for k, spec in specs.items()}
    degree = max(f.degree for f in filters.values())
    filters = {k: heaviside_filter(spec, degree=degree) for k, spec in specs.items()}
    table = {
        k: to_circuit(synthesize_symmetric(f, synthesis_tol))
        for k, f in filters.items()
    }
    return table, degree


def run_multiband(
    enc: BlockEncoding,
    structure: BandStructure,
    budget: float,
    state: StateVector,
    mode: str = "enumerate",
    seed: int = 0,
    stream: int = 0,
    trajectories: int = 1,
    split_constant: float = 4.0,
    round_eps: float | None = None,
    synthesis_tol: float = 1e-11,
) -> BranchTree:
    """Adaptive multi-round band projection of an input state.

    The global budget is split into a per-round filter budget
    eps = budget / (split_constant * L * log2 L) unless `round_eps` is given
    directly. Enumerate mode expands every branch; sample mode follows
    `trajectories` independent trajectories (streams stream, stream+1, ...)
    through circuits that are synthesized and assembled once. Filters for
    all rounds share one degree so each executed round costs the same
    number of encoding queries.
    """
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError("input system state must be unit norm")
    count = structure.band_count
    n = enc.encoded_dim
    check_band_assumption(eigh(encoded_block(enc)).values, structure)
    reg_qubits = enc.m + int(round(math.log2(n)))

    if count == 1:
        register = np.zeros(n * enc.ancilla_dim, dtype=complex)
        register[:n] = state.amplitudes
        leaf = TreeLeaf(MeasurementRecord(()), StateVector(reg_qubits, register),
                        1.0, 0, False, 0)
        return BranchTree([leaf], structure, 0, 0.0, 0, enc, MultibandPolicy(1, {}), mode)

    ell = math.ceil(math.log2(count))
    if round_eps is None:
        round_eps = round_budget(budget, count, split_constant)
    table, degree = _multiband_phase_table(structure, round_eps, synthesis_tol)
    policy = MultibandPolicy(count, table)

    cache = _BlockCache(enc)
    if mode == "enumerate":
        branches = _run_blocks(enc, policy, state.amplitudes, mode, seed, cache=cache)
    elif mode == "sample":
        branches = []
        for t in range(trajectories):
            branches.extend(
                _run_blocks(enc, policy, state.amplitudes, mode, seed, stream + t, cache)
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    leaves = []
    for branch in branches:
        record = MeasurementRecord(branch.bits)
        if len(branch.bits) and branch.bits[-1] == 0 and not record.failed:
            _check_ancilla_purity(branch.register, n, f"record {branch.bits}")
        leaves.append(
            TreeLeaf(
                record,
                StateVector(reg_qubits, branch.register),
                float(np.vdot(branch.register, branch.register).real),
                policy.claimed_band(record),
                record.failed,
                branch.queries,
            )
        )
    return BranchTree(leaves, structure, ell, round_eps, degree, enc, policy, mode)


@dataclass
class KrausExtraction:
    """Per-record linear maps from the system onto the final register."""

    records: list[MeasurementRecord]
    operators: list[np.ndarray]
    claimed_bands: list[int]
    failed: list[bool]
    completeness_residual: float
    system_dim: int

    def success_projectors(self) -> dict:
        """Claimed band -> approximate projector, from non-failed records.

        On success records the register operator is supported on the
        all-zero ancilla sector; its top block acts on the system alone.
        Each garbage-branch round contributes a deterministic physical
        minus sign, so the operator is rescaled by (-1)^(sum of band bits)
        to compare directly against the spectral projectors.
        """
        out: dict = {}
        n = self.system_dim
        for record, op, band, failed in zip(
            self.records, self.operators, self.claimed_bands, self.failed
        ):
            if failed:
                continue
            sign = (-1.0) ** sum(record.band_bits)
            out[band] = sign * op[:n, :]
        return out

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
    """Leaf operators obtained by replaying the enumerate pipeline on basis states.

    The branch maps are linear, so running each computational basis state
    through the same policy reconstructs every leaf's operator column by
    column. Trace preservation across all leaves is asserted before
    returning.
    """
    if tree.mode != "enumerate":
        raise ValueError("operator extraction requires an enumerate-mode tree")
    enc = tree.encoding
    n = enc.encoded_dim
    cache = _BlockCache(enc)
    per_basis = []
    for i in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[i] = 1.0
        branches = _run_blocks(enc, tree.policy, basis, "enumerate", 0, cache=cache)
        per_basis.append({b.bits: b.register for b in branches})

    records = sorted(per_basis[0].keys())
    operators = []
    for bits in records:
        op = np.column_stack([per_basis[i][bits] for i in range(n)])
        operators.append(op)

    total = sum(dagger(op) @ op for op in operators)
    residual = float(np.max(np.abs(total - np.eye(n))))
    if residual > 1e-6:
        raise RuntimeError(
            f"leaf operators are not trace preserving (residual {residual:.3e}); "
            "this indicates a pipeline bug"
        )

    recs = [MeasurementRecord(bits) for bits in records]
    return KrausExtraction(
        records=recs,
        operators=operators,
        claimed_bands=[tree.policy.claimed_band(r) for r in recs],
        failed=[r.failed for r in recs],
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
        approx = kraus.apply_channel(rho)
        ideal = np.zeros_like(rho)
        for p in exact:
            ideal += p @ rho @ p
        worst = max(worst, trace_norm(approx - ideal))
    return worst


def feedforward_query_count(band_count: int, degree: int) -> int:
    """Block-encoding queries of the full multi-band run: 2 ceil(log2 L) d."""
    if band_count < 1:
        raise ValueError("band count must be at least 1")
    return 2 * math.ceil(math.log2(band_count)) * degree


def round_budget(budget: float, band_count: int, split_constant: float = 4.0) -> float:
    """Per-round filter budget eps = budget / (split_constant L log2 L), for L >= 2."""
    return budget / (split_constant * band_count * math.log2(band_count))
