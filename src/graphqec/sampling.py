"""Noise channels, Poissonian count sampling and Monte Carlo error bars.

Experimental imperfection is emulated with per-qubit depolarizing and
dephasing maps plus a global white-noise admixture; finite statistics are
emulated by drawing a Poisson-distributed total per measurement setting and
multinomial counts over outcomes. The outcome probabilities of a product
setting are read from the state's Pauli vector: the expectations of the
setting's letters on every subset of the qubits, Walsh-Hadamard transformed
once per qubit. :func:`_sample_settings` does this for every setting of a
run at once: it gathers the settings of all its states from their
concatenated Pauli vectors and transforms them with one staged butterfly
per number of measured qubits, then draws each setting's histogram from
its own stream. All sampling is reproducible: the same (seed, stream) pair
always yields the same histogram, and distinct streams are independent.
A stream's generator is ``np.random.default_rng((seed, stream))``, bit for
bit, but built without it: :func:`_stream_states` derives the PCG64 seeds
of all streams of a run, the Monte Carlo stream included, in one
vectorized pass of numpy's SeedSequence mixing, and :func:`_generator`
seeds a PCG64 from one of them. ``numpy.random`` is imported on first use.

A histogram over k measured qubits is a :class:`CountRecord` holding a dense
int64 count vector of length 2^k indexed by ``int(bits, 2)``, which is also
the sorted-key order, or a (trials x 2^k) matrix of Monte Carlo resamples.
Outcome bitstrings appear only at the edges: :meth:`CountRecord.from_counts`
parses them, :attr:`CountRecord.counts` lists the nonzero cells by them, and
the CSV interchange reads and writes them, indexing one cached tuple of the
2^k bitstrings. Every parity estimate, a witness term, a sampled logical
operator or :func:`estimate_expectation`, is read through one cached parity
plan (:func:`_parity_plan`) and evaluated by one function
(:func:`_parities`): a float64 matrix over the cells of all the records,
whose columns are each read's +/-1 parity in its record's rows and that
record's 0/1 indicator, so one ``counts @ matrix`` gives every read's
signed sum and total, on a histogram or a batch. A witness is its terms
read through such a plan (:func:`_witness_plan`), weighted and subtracted
from its constant. The product runs in float64 and is exact:
a histogram's total is at most 2^53, so every count and every partial sum
of signed counts is an integer that float64 holds exactly.

Monte Carlo resampling draws every trial's Poisson vector over the nonzero
cells of all histograms in one draw per call (:func:`_poisson_trials`): a
zero cell always resamples to 0 and consumes no draw, so this is the draw
over every cell, value for value. :func:`monte_carlo_uncertainty` hands an
arbitrary statistic the trial-batched records, zero cells filled back in;
the runner and the CLI take a witness's estimate and error bar from
:func:`_witness_estimates`, which evaluates the plan's rows of the nonzero
cells on the draw itself, so no trial batch becomes a :class:`CountRecord`.
A run's witnesses, two or five, are estimated in one call. numpy releases
the interpreter lock inside its Poisson sampler, so their draws, largest
first, are shared between the calling thread and one helper thread per
process, started on first use (:func:`_run_draws`). Each draw has its own
generator, so no value depends on the thread that drew it, and a lone draw,
as in the CLI's :func:`_witness_estimate`, runs on the calling thread.
"""
from __future__ import annotations

import functools
import itertools
import numbers
import operator
import os
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel, pauli
from .kernel import DensityOperator
from .witnesses import WitnessSpec, _term_table

_MC_STREAM = 0x4D43  # reserved stream id for Monte Carlo resampling

# Largest expected count per setting. Every Poisson draw in sampling and
# resampling must accept it: numpy refuses Poisson rates above about 9.2e18,
# and a sampled total, like any cell resampled from it, stays within a few
# sqrt(1e12) = 1e6 of the cap. Totals also stay far below 2^53, so the
# parity estimator converts counts to float64 exactly.
MAX_EXPECTED_COUNTS = 1e12

# Largest count, and largest histogram total, a CountRecord accepts: every
# integer up to 2^53 is exact in float64. Recorded counts read from CSV are
# held to it when they enter.
MAX_COUNT = 2 ** 53

# Most Monte Carlo trials per call. The resampling draw is one int64
# (trials x cells) array: 51 MB at the cap for the resource witness's two
# five-qubit settings.
MAX_TRIALS = 100_000


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@functools.cache
def _hash_constants(h: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pairs of SeedSequence's first ``count`` hashes
    from ``h``: h_k and h_{k+1} = h_k * mult mod 2^32, for k < ``count``."""
    hs = list(itertools.accumulate([h] + [mult] * count, lambda h, m: h * m & _MASK32))
    return tuple(zip(hs, hs[1:]))


def _stream_states(seed, streams) -> np.ndarray:
    """(streams x 4) uint64: row j is
    ``np.random.SeedSequence((seed, streams[j])).generate_state(4, np.uint64)``,
    the PCG64 seed of ``np.random.default_rng((seed, streams[j]))``.

    numpy's SeedSequence (after O'Neill's ``seed_seq_fe``; NEP 19) reads each
    integer as its little-endian 32-bit words (0 as one word, a negative one
    raises), hashes the entropy words, the seed's then the stream's, into a
    4-word pool, cross-mixes the pool, mixes each word past the fourth into
    every pool word and hashes the pool out to 8 words. The hash constants
    do not depend on the data, so one pass runs every step over the
    (words x streams) array of all streams at once. Each row of that array
    is one Python integer with a 64-bit lane per stream, each lane below
    2^32: a lane times a 32-bit constant stays inside its 64 bits, so one
    integer product multiplies every stream, and masks keep each lane mod
    2^32. (The pass is about 50 such operations; on a few dozen lanes one
    costs a fraction of a numpy call.)"""
    seed, *streams = values = [operator.index(v) for v in (seed, *streams)]
    if min(values) < 0:
        raise ValueError("expected non-negative integer")
    k = seed.bit_length() + 31 >> 5 or 1  # the seed's words
    lengths = [k + (s.bit_length() + 31 >> 5 or 1) for s in streams]

    def lanes(column) -> int:  # one value per stream, each in its lane
        return int.from_bytes(struct.pack(f"<{len(column)}Q", *column), "little")

    ones = lanes([1] * len(streams))
    mask, neg_r = ones * _MASK32, (1 << 32) - _MIX_R

    def hashmix(value, x, m):  # (x, m): a pair of _hash_constants
        value = (value ^ x * ones) * m & mask
        return value ^ (value >> 16 & mask)

    def mix(x, y):  # L x - R y mod 2^32, as L x + (2^32 - R) y
        r = ((_MIX_L * x & mask) + (neg_r * y & mask)) & mask
        return r ^ (r >> 16 & mask)

    rows = [(seed >> 32 * i & _MASK32) * ones for i in range(k)] + \
        [lanes([s >> 32 * i & _MASK32 for s in streams])  # 0 past a stream's words
         for i in range(max(4, *lengths) - k)]  # and up to the pool's 4
    a = iter(_hash_constants(_INIT_A, _MULT_A, 4 * len(rows)))
    pool = [hashmix(v, *next(a)) for v in rows[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src], *next(a)))
    for i in range(4, len(rows)):  # word i mixes into the lanes whose entropy reaches it
        live = lanes([_MASK32 * (n > i) for n in lengths])
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(rows[i], *next(a))) & live | pool[dst] & ~live
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    out = [hashmix(pool[i % 4], *h) for i, h in enumerate(b)]  # 8 uint32, read as 4 uint64
    state = b"".join((lo | hi << 32).to_bytes(8 * len(streams), "little")
                     for lo, hi in zip(out[::2], out[1::2]))
    return np.ascontiguousarray(np.frombuffer(state, "<u8").reshape(4, -1).T, np.uint64)


@functools.cache
def _words_type():
    """``_Words``, defined on first use so that importing this module does
    not import ``numpy.random``: a seed sequence whose state is given, a
    row of :func:`_stream_states`, from which PCG64 runs its own seeding."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def _generator(words: np.ndarray) -> "np.random.Generator":
    """``np.random.default_rng((seed, stream))``, built from that stream's row
    ``words`` of :func:`_stream_states`."""
    return np.random.Generator(np.random.PCG64(_words_type()(words)))


def _mc_state(seed) -> np.ndarray:
    """The :func:`_stream_states` row of the Monte Carlo stream of ``seed``."""
    return _stream_states(seed, (_MC_STREAM,))[0]


def _is_number(value, kind) -> bool:
    """``value`` is an instance of the numbers ABC ``kind`` and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _builtin_number(x):
    """The real number ``x`` as a Python number: an ``int`` or ``float`` as
    given, any other integral value (numpy's) as ``int``, any other real
    (a ``Fraction``, a numpy float) as ``float``."""
    if type(x) is int or type(x) is float:
        return x
    return int(x) if isinstance(x, numbers.Integral) else float(x)


def _probability(p, name: str) -> float:
    """``p`` as a float, if it is a real number (not a bool) in [0, 1]."""
    if not _is_number(p, numbers.Real) or not 0 <= p <= 1:
        raise ValueError(f"{name} must be a probability in [0,1], got {p!r}")
    return float(p)


def _per_qubit(value, name: str) -> dict[int, float] | float:
    """One probability for every qubit, or a map from qubit to probability.
    A qubit is an integral non-bool (the kernel's label rule) or a string of
    decimal digits, as JSON keys are; two keys may not name one qubit."""
    if not isinstance(value, dict):
        return _probability(value, name)
    items = {}
    for q, p in value.items():
        if type(q) is not int:
            q = int(q) if isinstance(q, str) and q.isascii() and q.isdecimal() \
                else kernel._integral(q, f"{name} qubit")
        if q in items:
            raise ValueError(f"{name} qubit {q} is given twice")
        items[q] = _probability(p, f"{name} of qubit {q}")
    return items


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit depolarizing/dephasing plus a global white-noise visibility.

    Depolarizing p sends rho to (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y +
    Z rho Z), so a |0> qubit keeps <Z> = 1 - p. Dephasing q sends rho to
    (1 - q) rho + q Z rho Z. White noise mixes the result with the maximally
    mixed state: rho -> v rho + (1 - v) I / 2^n.

    The model is defined by its diagonal on the Pauli vector
    v_P = tr(rho P) (``kernel._pauli_vector``): each qubit scales its X and
    Y components by (1 - p)(1 - 2q) and its Z component by 1 - p, and white
    noise scales every component but the identity by the visibility v. So
    the noisy vector is v_P times the product of the per-qubit factors of
    P's letters, for every word P but I...I, whose entry (the trace) is kept
    (:func:`_noise_factors`). Every experiment kind and :func:`apply_noise`
    apply it in this one form.

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
        _probability(self.visibility, "visibility")
        object.__setattr__(self, "visibility", _builtin_number(self.visibility))
        if self.stage not in ("post-resource", "post-encoding"):
            raise ValueError(f"unknown noise stage {self.stage!r}")

    def depolarizing_for(self, q: int) -> float:
        return self.depolarizing.get(q, 0.0) if isinstance(self.depolarizing, dict) \
            else self.depolarizing

    def dephasing_for(self, q: int) -> float:
        return self.dephasing.get(q, 0.0) if isinstance(self.dephasing, dict) \
            else self.dephasing


def apply_noise(state, model: NoiseModel) -> DensityOperator:
    """Depolarize/dephase each qubit, then mix with the maximally mixed
    state: the Pauli vector times :func:`_noise_factors`, turned back into a
    density matrix. Trace is preserved exactly."""
    n = state.num_qubits
    vec = kernel._pauli_vector(kernel._raw(state), n) * _noise_factors(state.labels, model)
    return DensityOperator(state.labels, kernel._density_of_pauli_vector(vec, n))


def _noise_factors(labels, model: NoiseModel) -> np.ndarray:
    """Real ``[4]*n`` diagonal of the noise model on the Pauli vector of a
    state on ``labels`` (see :class:`NoiseModel`): the outer product of each
    qubit's (1, (1 - p)(1 - 2q), (1 - p)(1 - 2q), 1 - p), times the
    visibility everywhere but the all-identity entry, which is 1. Multiplying
    a unit-trace state's Pauli vector by it gives the Pauli vector of the
    noisy state."""
    out = np.ones(())
    for q in labels:
        p, dq = model.depolarizing_for(q), model.dephasing_for(q)
        xy = (1 - p) * (1 - 2 * dq)
        out = np.multiply.outer(out, (1.0, xy, xy, 1 - p))
    out = out * model.visibility
    out[(0,) * len(labels)] = 1.0
    return out


@dataclass(eq=False)
class CountRecord:
    """Outcome counts for one measurement setting.

    ``setting`` lists (qubit, basis) pairs in register order. ``dense`` is
    an int64 count vector over the 2^k outcomes, indexed by ``int(bits, 2)``
    where ``bits`` lists the outcomes in setting order with bit 0 meaning the
    +1 eigenvalue; a Monte Carlo batch is a (trials x 2^k) matrix with one
    such row per trial.

    The constructor checks every record that enters from outside: the
    setting, the cell count, integral counts (no bool, no 2.5: int64
    storage would read them as 1 and 2), non-negative counts and totals of
    at most 2^53. A count that is not already an integer array's is held
    to [0, 2^53] before the int64 cast, which would wrap 1e300 or overflow.
    :meth:`from_counts`, the CSV reader and :func:`monte_carlo_uncertainty`
    batches all pass through it. Only the histograms the sampler draws skip
    it (:meth:`_drawn`): they are non-negative int64 vectors of 2^k cells
    over a setting checked before the draw, with a Poisson total at a rate
    of at most ``MAX_EXPECTED_COUNTS``.
    """

    setting: tuple[tuple[int, str], ...]
    dense: np.ndarray

    def __post_init__(self):
        self.setting = _check_setting(self.setting)
        if not (isinstance(self.dense, np.ndarray) and self.dense.dtype.kind in "iu"):
            # a list or object array keeps each count's type; a numeric array, its dtype
            for c in np.asarray(self.dense, dtype=object).reshape(-1).tolist():
                if isinstance(c, (bool, np.bool_)) or not isinstance(c, numbers.Real) or c % 1:
                    raise ValueError(f"count {c!r} in setting {self.setting_label!r} "
                                     f"is not an integer")
                if not 0 <= c <= MAX_COUNT:  # before int64 storage wraps or overflows
                    raise ValueError(f"count {c!r} in setting {self.setting_label!r} "
                                     f"is negative or above 2^53")
        self.dense = np.asarray(self.dense, dtype=np.int64)
        if self.dense.shape[-1:] != (2 ** len(self.setting),):
            raise ValueError(f"expected {2 ** len(self.setting)} cells for setting "
                             f"{self.setting_label!r}, got shape {self.dense.shape}")
        if np.any(self.dense < 0):
            raise ValueError(f"negative count in setting {self.setting_label!r}")
        # The int64 sum wraps past 2^63. The float64 sum of non-negative
        # cells is off by a relative 2^-53 per cell at most, so a float
        # total of at most 2^54 puts the true total far below 2^63, where
        # the int64 sum is exact.
        if np.any(self.dense.sum(-1, dtype=float) > 2.0 * MAX_COUNT) \
                or np.any(self.dense.sum(-1) > MAX_COUNT):
            raise ValueError(f"histogram total above 2^53 in setting {self.setting_label!r}")

    @staticmethod
    def from_counts(setting, counts: dict[str, int]) -> "CountRecord":
        """Record from a ``{bits: count}`` histogram; absent outcomes count 0."""
        setting = _check_setting(setting)  # before 2^k cells are allocated
        k = len(setting)
        dense = np.zeros(2 ** k, dtype=object)  # so that the constructor sees each count's type
        for bits, c in counts.items():
            if len(bits) != k or set(bits) - {"0", "1"}:
                raise ValueError(f"bad outcome key {bits!r}")
            # a count that is no real number is refused by the constructor
            if isinstance(c, numbers.Real) and not 0 <= c <= MAX_COUNT:
                raise ValueError(f"count {c} of outcome {bits!r} in setting "
                                 f"{_setting_label(setting)!r} is negative or above 2^53")
            dense[int("0" + bits, 2)] = c  # "0" + : a zero-qubit setting's key is ""
        return CountRecord(setting, dense)

    @classmethod
    def _drawn(cls, setting: tuple[tuple[int, str], ...], dense: np.ndarray) -> "CountRecord":
        """A record of a histogram the sampler drew, built without the checks
        of the constructor (see the class docstring)."""
        record = cls.__new__(cls)
        record.setting, record.dense = setting, dense
        return record

    @property
    def setting_label(self) -> str:
        return _setting_label(self.setting)

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.setting)

    @property
    def total(self) -> int:
        """Number of counts in one histogram."""
        return int(self.dense.sum())

    @property
    def counts(self) -> dict[str, int]:
        """Nonzero cells of one histogram keyed by bitstring, in index order."""
        keys = _outcome_keys(len(self.setting))
        cells = np.flatnonzero(self.dense)
        return dict(zip([keys[i] for i in cells.tolist()], self.dense[cells].tolist()))


@functools.cache
def _outcome_keys(k: int) -> tuple[str, ...]:
    """The 2^k outcome bitstrings of a k-qubit setting, in index order."""
    # the leading 1 keeps k digits, and gives "" for a zero-qubit setting
    return tuple(format(i | 1 << k, "b")[1:] for i in range(2 ** k))


def _check_setting(setting) -> tuple[tuple[int, str], ...]:
    """``setting`` as (qubit, basis) pairs, if every basis is X, Y or Z and
    it measures at most ``kernel.MAX_QUBITS`` distinct qubits."""
    setting = tuple((int(q), str(b)) for q, b in setting)
    for q, b in setting:
        if b not in ("X", "Y", "Z"):
            raise ValueError(f"bad basis {b!r} for qubit {q} in setting "
                             f"{_setting_label(setting)!r}")
    qubits = [q for q, _ in setting]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"setting {_setting_label(setting)!r} measures a qubit twice")
    if len(qubits) > kernel.MAX_QUBITS:
        raise ValueError(f"setting {_setting_label(setting)!r} has {len(qubits)} qubits, "
                         f"at most {kernel.MAX_QUBITS}")
    return setting


def _setting_label(setting) -> str:
    return " ".join(f"{b}{q}" for q, b in setting)


def outcome_probabilities(state, bases: dict[int, str]) -> np.ndarray:
    """Joint outcome probabilities for measuring every qubit in its basis,
    as a float vector laid out as :attr:`CountRecord.dense`."""
    return _outcome_probabilities(_setting_vector(state, bases), state.labels, bases)


def _setting_vector(state, bases: dict[int, str]) -> np.ndarray:
    """Pauli vector of ``state``, once ``bases`` is checked to be a setting
    (:func:`_check_setting`) over exactly the state's register."""
    setting = _check_setting(bases.items())
    outside = [q for q, _ in setting if q not in state.labels]
    if outside:
        raise ValueError(f"setting {_setting_label(setting)!r} measures qubits {outside} "
                         f"outside the register {state.labels}")
    for q in state.labels:
        if q not in bases:
            raise ValueError(f"no basis given for qubit {q}")
    return kernel._pauli_vector(kernel._raw(state), state.num_qubits)


def _outcome_probabilities(vec: np.ndarray, labels, bases: dict[int, str]) -> np.ndarray:
    """Raw :func:`outcome_probabilities` of the state with Pauli vector ``vec``
    on ``labels``, over the k qubits that ``bases`` names, in register order
    (see :func:`_probabilities`)."""
    return _probabilities(vec, _setting_gather(tuple(bases.get(q) for q in labels))[None])[0]


def _probabilities(vec: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """(settings x 2^k) outcome probabilities of the settings whose stacked
    sub-cube indices into the flat ``vec`` are ``gather`` (see
    :func:`_jobs_plan`): Pauli vectors, one or several concatenated.

    Each setting's ``[2]*k`` sub-cube holds <I> and <P_q>, P_q the qubit's
    basis, on every measured axis, at index 0 (the partial trace) on every
    other axis. It is Walsh-Hadamard transformed on every axis, so that
    p(b) = 2^-k sum_S (-1)^(b.S) <prod_{q in S} P_q> with bit 0 meaning the
    +1 eigenvalue. The transform is one butterfly (a + b, a - b) per axis,
    first axis first, in place over all settings at once: the same float
    operations as :func:`kernel._transform_each_axis` with the 2x2 Walsh
    matrix. Negative rounding residue is clipped to 0 and each setting's
    vector renormalized.
    """
    n, k = len(gather), gather.ndim - 1
    t = vec.take(gather).reshape(n, -1)
    for axis in range(k):
        pairs = t.reshape(n, 2 ** axis, 2, -1)
        even, odd = pairs[:, :, 0], pairs[:, :, 1]
        total = even + odd
        np.subtract(even, odd, out=odd)
        even[...] = total
    t /= 2 ** k
    np.maximum(t, 0.0, out=t)
    return t / t.sum(-1, keepdims=True)


@functools.lru_cache(maxsize=128)
def _setting_gather(letters: tuple[str | None, ...]) -> np.ndarray:
    """Read-only flat index into a ``[4]*n`` Pauli vector, shaped ``[2]*k``:
    the sub-cube :func:`_probabilities` transforms, for a register whose
    axis i is measured in ``letters[i]`` (``None``: not measured, read at
    index 0). Taking it from the flattened vector equals the ``np.ix_``
    selection of indices (0, letter) and (0,), squeezed."""
    index = np.arange(4 ** len(letters)).reshape([4] * len(letters))
    index = index[np.ix_(*[(0, pauli._LETTER_INDEX[l]) if l else (0,)
                           for l in letters])].squeeze()
    index.setflags(write=False)
    return index


def sample_setting_counts(state, bases: dict[int, str], expected_n: float,
                          seed: int, stream: int = 0) -> CountRecord:
    """Poisson total then multinomial split over exact outcome probabilities."""
    if not 0 < expected_n <= MAX_EXPECTED_COUNTS:  # also refuses NaN
        raise ValueError(f"expected_n must be positive and at most "
                         f"{MAX_EXPECTED_COUNTS:g}, got {expected_n}")
    job = (_setting_vector(state, bases), state.labels, (bases,), stream)
    [[record]], _ = _sample_settings([job], expected_n, seed)
    return record


def _sample_settings(jobs, expected_n: float,
                     seed: int) -> tuple[list[list[CountRecord]], np.ndarray]:
    """Raw :func:`sample_setting_counts` of every setting of every job. A job
    is ``(vec, labels, settings, stream_base)``: the Pauli vector of a state
    on ``labels`` and the settings (``{qubit: basis}`` maps, measured in
    register order) drawn from it, the i-th from stream ``stream_base + i``.
    Returns one list of records per job, in setting order, and the
    :func:`_mc_state` of ``seed``.

    The settings of all jobs are gathered from the jobs' concatenated
    vectors, and their probabilities come from one :func:`_probabilities`
    pass per number of measured qubits. Each histogram is then a Poisson
    total and a multinomial split drawn from its own (seed, stream)
    generator, job after job, so it equals drawing the settings one at a
    time. The generators' states, and the Monte Carlo stream's state
    returned with the records, come from one :func:`_stream_states` pass."""
    groups, measured = _jobs_plan(tuple(
        (tuple(labels), tuple(tuple(map(s.get, labels)) for s in settings))
        for _, labels, settings, _ in jobs))
    vec = jobs[0][0] if len(jobs) == 1 else np.concatenate([j[0].reshape(-1) for j in jobs])
    probs = {}
    for gather, where in groups:
        probs.update(zip(where, _probabilities(vec, gather)))
    streams = [base + i for (*_, base), settings in zip(jobs, measured)
               for i in range(len(settings))]
    states = iter(_stream_states(seed, [*streams, _MC_STREAM]))
    out = []
    for j, settings in enumerate(measured):
        records = []
        for i, setting in enumerate(settings):
            rng = _generator(next(states))
            records.append(CountRecord._drawn(setting, rng.multinomial(
                int(rng.poisson(expected_n)), probs[j, i])))
        out.append(records)
    return out, next(states)


@functools.lru_cache(maxsize=128)
def _jobs_plan(shapes: tuple[tuple[tuple[int, ...], tuple[tuple[str | None, ...], ...]], ...]):
    """(groups, settings) for :func:`_sample_settings` jobs of these shapes,
    each ``(labels, letters)``: the register and, per setting, each
    qubit's basis or ``None``. ``groups`` holds one ``(gather, where)`` per
    number k of measured qubits: the read-only stack of the k-qubit
    settings' :func:`_setting_gather` indices into the concatenated flat
    vectors, and the (job, setting) position of each. ``settings`` gives
    each job's settings as the (qubit, basis) pairs of a
    :class:`CountRecord`."""
    by_width: dict[int, list] = {}
    settings, offset = [], 0
    for j, (labels, letters) in enumerate(shapes):
        for i, l in enumerate(letters):
            gather = _setting_gather(l) + offset
            by_width.setdefault(gather.ndim, []).append((gather, (j, i)))
        settings.append(tuple(tuple((q, b) for q, b in zip(labels, l) if b) for l in letters))
        offset += 4 ** len(labels)
    groups = []
    for entries in by_width.values():
        gather = np.stack([g for g, _ in entries])
        gather.setflags(write=False)
        groups.append((gather, tuple(w for _, w in entries)))
    return tuple(groups), tuple(settings)


class _Plan(NamedTuple):
    """The parity plan of R parity reads on a list of records (see
    :func:`_parity_plan`), over the records' cells concatenated in record
    order. ``matrix`` is the read-only float64 (cells x 2R) matrix: column
    j < R holds read j's +/-1 parity in the rows of the record it reads,
    column R + j that record's 0/1 indicator, so ``counts @ matrix`` gives
    every read's signed parity sum and its record's total in one BLAS
    product. Per record read, in record order, ``reads`` holds its first
    cell, its end and its setting's label, and ``firsts`` the first parity
    read of it. A witness's plan (:func:`_witness_plan`) also holds
    ``weights``, each term's ``float(coefficient) * sign``."""

    matrix: np.ndarray
    reads: tuple[tuple[int, int, str], ...]
    firsts: tuple[int, ...]
    weights: np.ndarray | None = None


@functools.lru_cache(maxsize=128)
def _parity_plan(settings: tuple, parities: tuple) -> _Plan:
    """The :class:`_Plan` of ``parities`` on records with these ``settings``.
    Each parity is a (record index, support) pair: the parity of the
    outcomes of the support's qubits in that record, +1 where the bits
    (0 = the +1 eigenvalue) have even parity, -1 where odd."""
    starts = [0, *itertools.accumulate(2 ** len(s) for s in settings)]
    n = len(parities)
    matrix = np.zeros((starts[-1], 2 * n))
    for j, (i, support) in enumerate(parities):
        qubits = [q for q, _ in settings[i]]
        cells = np.arange(2 ** len(qubits))
        # each shift puts one qubit's bit lowest; the low bit of the sum is their xor
        odd = sum(cells >> (len(qubits) - 1 - qubits.index(q)) for q in support) & 1
        matrix[starts[i]:starts[i + 1], j] = 1 - 2 * odd
        matrix[starts[i]:starts[i + 1], n + j] = 1
    matrix.setflags(write=False)
    chosen = [i for i, _ in parities]
    read = sorted(set(chosen))
    return _Plan(matrix,
                 tuple((starts[i], starts[i + 1], _setting_label(settings[i])) for i in read),
                 tuple(map(chosen.index, read)))


def _parities(plan: _Plan, counts, cells=None) -> np.ndarray:
    """Every parity read of ``plan``, signed sum over total, on a trailing
    axis. ``counts`` holds the records' count vectors concatenated in record
    order (one histogram, or a batch with leading axes), or, given the
    sorted indices ``cells`` into them, only those cells (every other cell
    is 0).

    One float64 product with the plan's matrix gives every signed sum and
    every total. A float total is exact if the true total is at most 2^53,
    and at least 2^53 if it is above, since every partial sum of
    non-negative integers below 2^53 is exact and rounding is monotone; so
    only a record whose float total reaches 2^53 is summed again in int64
    to refuse a total above 2^53. With every total at most 2^53, every
    partial signed sum is an exact integer too, and the quotient is that of
    Python's int/int division. A record read that is empty, or above 2^53,
    raises; the first such record in record order names the error."""
    sums = counts.astype(float) @ (plan.matrix if cells is None else plan.matrix[cells])
    n = sums.shape[-1] // 2
    signed, totals = sums[..., :n], sums[..., n:]
    if totals.size and not 0 < totals.min() <= totals.max() < MAX_COUNT:
        reads = totals[..., plan.firsts].reshape(-1, len(plan.firsts))
        for (start, end, label), read in zip(plan.reads, reads.T):
            if (read == 0).any():
                raise ValueError("empty histogram")
            part = slice(start, end) if cells is None \
                else slice(*np.searchsorted(cells, (start, end)))
            if (read >= MAX_COUNT).any() and (counts[..., part].sum(-1) > MAX_COUNT).any():
                raise ValueError(f"histogram total above 2^53 in setting {label!r}")
    return signed / totals


def estimate_expectation(record, support):
    """Parity estimator: counts weighted by +/-1 per outcome parity on the
    support, over the total.

    ``record.dense`` is one count vector (returns a float) or a Monte Carlo
    batch of them (returns one estimate per trial). It is a one-read
    :func:`_parity_plan`, evaluated by :func:`_parities`, so it agrees bit
    for bit with a per-outcome loop.
    """
    support, qubits = tuple(support), record.qubits
    missing = [q for q in support if q not in qubits]
    if missing:
        raise ValueError(f"qubits {missing} not measured in setting {record.setting_label!r}")
    est = _parities(_parity_plan((record.setting,), ((0, support),)), record.dense)[..., 0]
    return est if est.ndim else float(est)


def witness_settings(spec: WitnessSpec) -> list[dict[int, str]]:
    """Greedy packing of witness terms into joint measurement settings;
    for the built-in witnesses this recovers the published two settings."""
    return [dict(s) for s in _witness_settings(spec)]


@functools.lru_cache(maxsize=128)
def _witness_settings(spec: WitnessSpec) -> tuple[dict[int, str], ...]:
    """:func:`witness_settings`, cached per spec; the maps are shared, and
    read only."""
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
    return tuple(settings)


def _term_records(settings, spec: WitnessSpec) -> list[int]:
    """Index into ``settings`` of the setting each witness term is estimated
    from: the first that measures all of the term's letters and no qubit
    outside ``spec.qubits``, else the first that measures all its letters."""
    inside = set(spec.qubits)
    settings = [dict(s) for s in settings]
    indices = []
    for t in spec.terms:
        covering = [i for i, s in enumerate(settings)
                    if all(s.get(q) == l for q, l in t.word.letters)]
        if not covering:
            raise ValueError(f"no setting covers term {t.label()}")
        indices.append(next((i for i in covering if settings[i].keys() <= inside),
                            covering[0]))
    return indices


@functools.lru_cache(maxsize=128)
def _witness_plan(spec: WitnessSpec, settings: tuple) -> _Plan:
    """The :func:`_parity_plan` of the terms of ``spec`` on records with
    these ``settings``, each term read from its :func:`_term_records`
    record, with the terms' weights."""
    parities = tuple(zip(_term_records(settings, spec), (t.word.support for t in spec.terms)))
    table = _term_table(spec)
    weights = np.array([c * sign for c, sign in zip(table.coefficients, table.signs)])
    weights.setflags(write=False)
    return _parity_plan(settings, parities)._replace(weights=weights)


def _plan_value(spec: WitnessSpec, plan: _Plan, counts, cells=None):
    """The witness on ``counts`` (see :func:`_parities`): each term's parity
    times its weight, subtracted from the constant in term order, so the
    float operations are those of a per-term loop over
    :func:`estimate_expectation`."""
    constant = _term_table(spec).constant
    if not spec.terms:
        return constant
    value = np.subtract.reduce(_parities(plan, counts, cells) * plan.weights, axis=-1,
                               initial=constant)
    return value if value.ndim else float(value)


def _concatenated(records) -> np.ndarray:
    """The records' count vectors (or batches) concatenated in record order."""
    return np.concatenate([r.dense for r in records], axis=-1) if records \
        else np.zeros(0, dtype=np.int64)


def witness_value_from_counts(records, spec: WitnessSpec):
    """Evaluate a witness from recorded counts. On trial-batched records the
    value is an array with one entry per trial.

    Each term is estimated from the first record that measures all of its
    letters and no qubit outside ``spec.qubits``; only if there is none,
    from the first record that measures all of its letters. So the box
    witness reads its ``X4 X5`` term off a four-qubit box setting, not off a
    five-qubit resource setting taken before the ancilla was measured. The
    terms read from one record are evaluated together, through a cached
    parity plan (:func:`_witness_plan`)."""
    records = list(records)
    plan = _witness_plan(spec, tuple(r.setting for r in records))
    return _plan_value(spec, plan, _concatenated(records))


def witness_records(records, spec: WitnessSpec) -> list[CountRecord]:
    """The records :func:`witness_value_from_counts` reads, in their given
    order; the value is the same on them as on all of ``records``."""
    records = list(records)
    return [records[i] for i in sorted(set(_term_records([r.setting for r in records], spec)))]


def _poisson_trials(counts: np.ndarray, trials: int, mc: np.ndarray):
    """(draw, cells): the nonzero cells ``cells`` of the count vector
    ``counts`` and the call ``draw()`` that resamples them, one
    (trials x cells) Poisson draw from a fresh generator of the Monte Carlo
    stream, whose state is ``mc`` (:func:`_mc_state`). numpy draws 0 for a
    rate of 0 and consumes no draw, so these are the nonzero columns of the
    draw over every cell, value for value, and every other cell is 0."""
    if not _is_number(trials, numbers.Integral) or not 100 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [100, {MAX_TRIALS}], got {trials}")
    cells = np.flatnonzero(counts)
    return functools.partial(_generator(mc).poisson, counts[cells], (trials, cells.size)), cells


def monte_carlo_uncertainty(statistic, records, trials: int, seed: int) -> tuple[float, float]:
    """Poisson-resample every histogram cell ``trials`` times, evaluate the
    statistic on the resamples and return (mean, std) over the trials.

    Batch contract: ``statistic`` is called once, on a list of
    :class:`CountRecord` (one per record, same order and settings) whose
    ``dense`` matrices carry a leading trial axis. It must broadcast over
    that axis and return one value per trial, such as
    :func:`witness_value_from_counts` does; a scalar is taken for every
    trial.

    All trials come from one (seed, stream) generator in a single
    (trials x nonzero cells) Poisson draw: row t is trial t, its cells
    follow the records in order, and a zero cell stays 0 and consumes no
    draw. Row t therefore does not depend on ``trials``, and equals drawing
    the nonzero cells one by one, trial after trial, in sorted order. The
    draw grows with the nonzero cells, 8 bytes each per trial; the batch
    handed to ``statistic`` holds every cell, 8 bytes x sum of 2^k per
    trial, about 150 KB at 200 trials of three five-qubit settings.
    """
    records = list(records)
    counts = _concatenated(records)
    draw, cells = _poisson_trials(counts, trials, _mc_state(seed))
    full = np.zeros((trials, counts.size), dtype=np.int64)
    full[:, cells] = draw()
    ends = list(itertools.accumulate(r.dense.size for r in records))
    vals = np.empty(trials)
    vals[:] = statistic([CountRecord(r.setting, full[:, start:end])
                         for r, start, end in zip(records, [0] + ends, ends)])
    return float(vals.mean()), float(vals.std())


def _witness_estimate(records, spec: WitnessSpec, trials: int,
                      seed: int) -> tuple[float, float, float]:
    """(estimate, mc_mean, mc_std) of the witness ``spec`` on ``records``:
    :func:`witness_value_from_counts`, and :func:`monte_carlo_uncertainty`
    of it with every record resampled, bit for bit. It is the one-item
    :func:`_witness_estimates`, whose one draw runs on the calling thread."""
    return _witness_estimates([(records, spec)], trials, _mc_state(seed))[0]


def _witness_estimates(items, trials: int, mc: np.ndarray) -> list[tuple[float, float, float]]:
    """:func:`_witness_estimate` of each ``(records, spec)`` of ``items``,
    in item order, where ``mc`` is :func:`_mc_state` of the seed, as
    :func:`_sample_settings` returns it. Each witness resamples from a
    fresh generator of the Monte Carlo stream, as if it were alone.

    The calling thread prepares every witness in item order: its plan, its
    estimate and its draw (:func:`_poisson_trials`). The draws then run
    from one list (:func:`_run_draws`), on this thread and, for two or
    more, on the process's helper thread too. Last, each witness's plan is
    evaluated on the nonzero columns of its draw, which become no
    :class:`CountRecord`, in item order. An error is the one that the items
    evaluated one after the other would raise: the first item's to fail, at
    the first step where it fails."""
    prepared, failure = [], None
    for records, spec in items:
        try:
            records = list(records)
            plan = _witness_plan(spec, tuple(r.setting for r in records))
            counts = _concatenated(records)
            estimate = _plan_value(spec, plan, counts)
            prepared.append((spec, plan, estimate, *_poisson_trials(counts, trials, mc)))
        except Exception as exc:  # raised once the items before it are evaluated
            failure = exc
            break
    out = []
    for (spec, plan, estimate, _, cells), drawn in zip(
            prepared, _run_draws([draw for *_, draw, _ in prepared])):
        if isinstance(drawn, BaseException):
            raise drawn
        vals = _plan_value(spec, plan, drawn, cells)
        out.append((estimate, float(vals.mean()), float(vals.std())))
    if failure is not None:
        raise failure
    return out


# The job queue of this process's helper thread, by process id: a forked
# child, whose copy of the parent's helper does not run, starts its own.
_HELPERS: dict = {}


def _run_draws(draws) -> list:
    """Each of ``draws``, :func:`_poisson_trials` draws, called once: its
    result or the exception it raised, in the order of ``draws``.

    numpy releases the interpreter lock inside ``Generator.poisson``, so two
    draws run at once on two cores. The draws wait in one list, the most
    rates first, and two threads take them one at a time until it is empty:
    the calling thread and, for two or more draws, the process's helper
    thread (:func:`_helper`), which sends its results back in one message
    on this call's own channel. The caller waits for that message only if
    the helper took a draw. A call that raises or is interrupted empties
    the list, so the helper stops after its current draw, whose result
    goes to the abandoned channel and never reaches a later call. A draw's
    value does not depend on the thread that runs it: each has its own
    generator."""
    out = [None] * len(draws)
    tasks = sorted(enumerate(draws), key=lambda task: task[1].args[0].size)  # by rates
    pending = len(tasks)  # less the caller's own draws: the helper's
    if pending > 1:
        from _queue import SimpleQueue  # queue.SimpleQueue; see _helper
        results = SimpleQueue()
        _helper().put((tasks, results))
    try:
        for index, draw in _taken(tasks):
            try:
                out[index] = draw()
            except Exception as exc:  # raised by the caller in item order
                out[index] = exc
            pending -= 1
        if pending:
            for index, value in results.get():
                out[index] = value
    finally:
        tasks.clear()
    return out


def _helper():
    """The job queue of this process's one helper thread, started on first
    use. A job is ``(tasks, results)``: the helper takes ``(index, draw)``
    tasks off the end of the list ``tasks`` until it is empty, then puts
    the list of its ``(index, result or exception)`` on ``results``, if it
    took any."""
    pid = os.getpid()
    if pid not in _HELPERS:
        import threading
        # queue.SimpleQueue is this class; importing queue would also load
        # heapq and cost 1 ms and 0.14 MB of memory at first use
        from _queue import SimpleQueue
        jobs = SimpleQueue()
        # setdefault is atomic: of two threads that get here, one starts the helper
        if _HELPERS.setdefault(pid, jobs) is jobs:
            threading.Thread(target=_serve, args=(jobs,), name="graphqec-poisson",
                             daemon=True).start()
    return _HELPERS[pid]


def _serve(jobs):
    """The helper thread's loop over the jobs of :func:`_helper`. Whatever a
    draw raises goes back to its caller, so the helper outlives it and the
    caller gets a result for every draw the helper took."""
    while True:
        tasks, results = jobs.get()
        done = []
        for index, draw in _taken(tasks):
            try:
                done.append((index, draw()))
            except BaseException as exc:  # re-raised by the caller, who would hang without it
                done.append((index, exc))
        if done:
            results.put(done)


def _taken(tasks):
    """The tasks of a :func:`_run_draws` list, each popped off its end by
    the thread that runs it, until it is empty."""
    while True:
        try:
            yield tasks.pop()
        except IndexError:
            return


# -- CSV interchange ---------------------------------------------------------

COUNTS_CSV_HEADER = ("setting", "outcome", "count")


def counts_to_csv_rows(records) -> list[tuple[str, str, int]]:
    """One row per nonzero cell; an empty histogram writes one zero row, so
    that it survives the round trip."""
    rows = [COUNTS_CSV_HEADER]
    for r in records:
        label, keys = r.setting_label, _outcome_keys(len(r.setting))
        cells = np.flatnonzero(r.dense).tolist() or [0]
        rows.extend(zip(itertools.repeat(label), [keys[i] for i in cells],
                        r.dense[cells].tolist()))
    return rows


def counts_from_csv_rows(rows) -> list[CountRecord]:
    """Inverse of counts_to_csv_rows; accepts externally recorded tables.

    Rows are grouped by the parsed setting, so labels that differ only in
    spacing (``Z1 Z2`` and ``Z1  Z2``) add into one record. A malformed row
    raises ``ValueError`` naming its line (the header is line 1)."""
    by_setting: dict[tuple, dict[str, int]] = {}
    for line, row in enumerate(map(tuple, rows), start=1):
        if line == 1 and row == COUNTS_CSV_HEADER:
            continue
        if len(row) != 3:
            raise ValueError(f"line {line}: expected 3 fields (setting, outcome, count), "
                             f"got {len(row)}")
        label, bits, count = row
        bad = [tok for tok in label.split() if not re.fullmatch("[XYZ][0-9]+", tok)]
        if bad:
            raise ValueError(f"line {line}: bad setting token {bad[0]!r}; expected a basis "
                             f"letter X, Y or Z and a qubit number")
        try:
            count = int(count)
        except ValueError:
            raise ValueError(f"line {line}: count {count!r} is not an integer") from None
        try:
            setting = _check_setting((int(tok[1:]), tok[0]) for tok in label.split())
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
        cells = by_setting.setdefault(setting, {})
        cells[bits] = cells.get(bits, 0) + count
    return [CountRecord.from_counts(setting, cells) for setting, cells in by_setting.items()]
