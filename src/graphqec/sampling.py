"""Noise channels, Poissonian count sampling and Monte Carlo error bars.

Experimental imperfection is emulated with per-qubit depolarizing and
dephasing maps plus a global white-noise admixture; finite statistics are
emulated by drawing a Poisson-distributed total per measurement setting and
multinomial counts over outcomes. All sampling is reproducible: the same
(seed, stream) pair always yields the same histogram, and distinct streams
are independent, so trials can run in parallel without changing results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .kernel import DensityOperator
from .witnesses import WitnessSpec

# Basis-change unitaries mapping basis eigenvectors onto |0>, |1>.
_TO_Z = {
    "X": kernel.H,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
    "Z": kernel.I,
}

_MC_STREAM = 0x4D43  # reserved stream id for Monte Carlo resampling


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(stream)))


@dataclass(frozen=True)
class RngSeed:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return make_rng(self.seed, self.stream)


def _per_qubit(value, name: str) -> dict[int, float] | float:
    if isinstance(value, dict):
        items = {int(q): float(p) for q, p in value.items()}
        bad = {q: p for q, p in items.items() if not 0 <= p <= 1}
    else:
        items = float(value)
        bad = {} if 0 <= items <= 1 else {"*": items}
    if bad:
        raise ValueError(f"{name} probabilities out of [0,1]: {bad}")
    return items


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit depolarizing/dephasing plus a global white-noise visibility.

    Depolarizing p sends rho to (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y +
    Z rho Z), so a |0> qubit keeps <Z> = 1 - p. Dephasing q sends rho to
    (1 - q) rho + q Z rho Z. Both are applied in closed form on the qubit's
    2x2 block structure (rho_ab is the block with row bit a, column bit b):

    - depolarizing: rho -> (1 - p) rho + p Tr_q(rho) (x) I/2, i.e. the
      off-diagonal blocks scale by 1 - p and each diagonal block becomes
      (1 - p) rho_aa + (p/2)(rho_00 + rho_11);
    - dephasing: the off-diagonal blocks rho_01, rho_10 scale by 1 - 2q.

    ``stage`` says where the runner applies the model: to the five-qubit
    resource or to the encoded four-qubit state.
    """

    depolarizing: float | dict[int, float] = 0.0
    dephasing: float | dict[int, float] = 0.0
    visibility: float = 1.0
    stage: str = "post-encoding"

    def __post_init__(self):
        object.__setattr__(self, "depolarizing", _per_qubit(self.depolarizing, "depolarizing"))
        object.__setattr__(self, "dephasing", _per_qubit(self.dephasing, "dephasing"))
        if not 0 <= self.visibility <= 1:
            raise ValueError(f"visibility {self.visibility} out of [0,1]")
        if self.stage not in ("post-resource", "post-encoding"):
            raise ValueError(f"unknown noise stage {self.stage!r}")

    def depolarizing_for(self, q: int) -> float:
        return self.depolarizing.get(q, 0.0) if isinstance(self.depolarizing, dict) \
            else self.depolarizing

    def dephasing_for(self, q: int) -> float:
        return self.dephasing.get(q, 0.0) if isinstance(self.dephasing, dict) \
            else self.dephasing

    @property
    def is_ideal(self) -> bool:
        qs = range(1, 6)
        return (self.visibility == 1.0
                and all(self.depolarizing_for(q) == 0 for q in qs)
                and all(self.dephasing_for(q) == 0 for q in qs))

    @staticmethod
    def ideal() -> "NoiseModel":
        return NoiseModel()

    @staticmethod
    def white(visibility: float, stage: str = "post-encoding") -> "NoiseModel":
        return NoiseModel(visibility=visibility, stage=stage)


def apply_noise(state, model: NoiseModel) -> DensityOperator:
    """Depolarize/dephase each qubit, then mix with the maximally mixed
    state: rho -> v rho' + (1 - v) I / 2^n. Trace is preserved exactly."""
    n = state.num_qubits
    t = np.array(kernel._density_matrix(state)).reshape([2] * (2 * n))
    for i, q in enumerate(state.labels):
        p, dq = model.depolarizing_for(q), model.dephasing_for(q)
        blocks = np.moveaxis(t, (i, n + i), (0, 1))  # view: blocks[a, b] = rho_ab
        if p > 0:
            mixed = p / 2 * (blocks[0, 0] + blocks[1, 1])
            blocks *= 1 - p
            blocks[0, 0] += mixed
            blocks[1, 1] += mixed
        if dq > 0:
            blocks[0, 1] *= 1 - 2 * dq
            blocks[1, 0] *= 1 - 2 * dq
    dim = 2 ** n
    rho = t.reshape(dim, dim)
    v = model.visibility
    if v < 1:
        rho = v * rho + (1 - v) * np.eye(dim) / dim
    return DensityOperator(state.labels, rho)


@dataclass
class CountRecord:
    """Outcome histogram for one measurement setting.

    ``setting`` lists (qubit, basis) pairs in register order; histogram keys
    are outcome bitstrings in the same order with bit 0 meaning the +1
    eigenvalue.
    """

    setting: tuple[tuple[int, str], ...]
    counts: dict[str, int] = field(default_factory=dict)
    expected_total: float = 0.0

    def __post_init__(self):
        self.setting = tuple((int(q), str(b)) for q, b in self.setting)
        for b in self.setting:
            if b[1] not in "XYZ":
                raise ValueError(f"bad basis in setting: {b}")
        for bits, c in self.counts.items():
            if len(bits) != len(self.setting) or set(bits) - {"0", "1"}:
                raise ValueError(f"bad outcome key {bits!r}")
            if c < 0:
                raise ValueError(f"negative count for {bits!r}")

    @property
    def setting_label(self) -> str:
        return " ".join(f"{b}{q}" for q, b in self.setting)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.setting)


def outcome_probabilities(state, bases: dict[int, str]) -> dict[str, float]:
    """Joint outcome probabilities for measuring every qubit in its basis."""
    n = state.num_qubits
    t = kernel._density_matrix(state).reshape([2] * (2 * n))
    for i, q in enumerate(state.labels):
        if q not in bases:
            raise ValueError(f"no basis given for qubit {q}")
        t = kernel._conjugate(t, _TO_Z[bases[q]], (i,))
    probs = np.clip(np.diagonal(t.reshape(2 ** n, 2 ** n)).real, 0.0, None)
    probs = probs / probs.sum()
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs)}


def sample_setting_counts(state, bases: dict[int, str], expected_n: float,
                          seed: int, stream: int = 0) -> CountRecord:
    """Poisson total then multinomial split over exact outcome probabilities."""
    if expected_n <= 0:
        raise ValueError(f"expected_n must be positive, got {expected_n}")
    labels = state.labels
    probs = outcome_probabilities(state, bases)
    keys = sorted(probs)
    rng = make_rng(seed, stream)
    total = int(rng.poisson(expected_n))
    draws = rng.multinomial(total, [probs[k] for k in keys]) if total > 0 else []
    counts = {k: int(c) for k, c in zip(keys, draws) if c > 0}
    return CountRecord(tuple((q, bases[q]) for q in labels), counts, float(expected_n))


def estimate_expectation(record: CountRecord, support) -> float:
    """Parity estimator: sum of (+/-1 per outcome parity on the support)
    weighted by counts, over the total."""
    if record.total == 0:
        raise ValueError("empty histogram")
    missing = [q for q in support if q not in record.qubits]
    if missing:
        raise ValueError(f"qubits {missing} not measured in setting {record.setting_label!r}")
    positions = [record.qubits.index(q) for q in support]
    acc = 0
    for bits, c in record.counts.items():
        parity = sum(int(bits[i]) for i in positions) % 2
        acc += -c if parity else c
    return acc / record.total


def witness_settings(spec: WitnessSpec) -> list[dict[int, str]]:
    """Greedy packing of witness terms into joint measurement settings;
    for the built-in witnesses this recovers the published two settings."""
    settings: list[dict[int, str]] = []
    for t in spec.terms:
        for s in settings:
            if all(s.get(q, l) == l for q, l in t.word.letters):
                s.update(dict(t.word.letters))
                break
        else:
            settings.append(dict(t.word.letters))
    for s in settings:
        for q in spec.qubits:
            s.setdefault(q, "Z")
    return settings


def witness_value_from_counts(records, spec: WitnessSpec) -> float:
    """Evaluate a witness from recorded counts; each term is estimated from
    the first setting that measures all of its letters."""
    value = float(spec.constant)
    for t in spec.terms:
        rec = next((r for r in records
                    if all(dict(r.setting).get(q) == l for q, l in t.word.letters)), None)
        if rec is None:
            raise ValueError(f"no setting covers term {t.label()}")
        value -= float(t.coefficient) * t.sign * estimate_expectation(rec, t.word.support)
    return value


def resample_counts(records, rng: np.random.Generator) -> list[CountRecord]:
    """Poisson-resample every histogram cell (the Monte Carlo step)."""
    out = []
    for r in records:
        counts = {bits: int(rng.poisson(c)) for bits, c in sorted(r.counts.items())}
        out.append(CountRecord(r.setting, {b: c for b, c in counts.items() if c > 0},
                               r.expected_total))
    return out


def monte_carlo_uncertainty(statistic, records, trials: int, seed: int) -> tuple[float, float]:
    """Resample all histograms ``trials`` times, re-run the statistic and
    return (mean, std) of the resulting distribution.

    Each trial draws from its own (seed, stream, trial) generator, so trials
    can run in parallel and still reproduce the serial result exactly.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    vals = np.array([
        statistic(resample_counts(records, np.random.default_rng((int(seed), _MC_STREAM, t))))
        for t in range(trials)])
    return float(vals.mean()), float(vals.std())


# -- CSV interchange ---------------------------------------------------------

COUNTS_CSV_HEADER = ("setting", "outcome", "count")


def counts_to_csv_rows(records) -> list[tuple[str, str, int]]:
    rows = [COUNTS_CSV_HEADER]
    for r in records:
        for bits in sorted(r.counts):
            rows.append((r.setting_label, bits, r.counts[bits]))
    return rows


def counts_from_csv_rows(rows) -> list[CountRecord]:
    """Inverse of counts_to_csv_rows; accepts externally recorded tables."""
    rows = [tuple(r) for r in rows]
    if rows and tuple(rows[0]) == COUNTS_CSV_HEADER:
        rows = rows[1:]
    by_setting: dict[str, dict[str, int]] = {}
    for label, bits, count in rows:
        cell = by_setting.setdefault(label, {})
        cell[bits] = cell.get(bits, 0) + int(count)
    records = []
    for label, counts in by_setting.items():
        setting = tuple((int(tok[1:]), tok[0]) for tok in label.split())
        records.append(CountRecord(setting, counts, float(sum(counts.values()))))
    return records
