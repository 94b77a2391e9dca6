"""Reference implementations the property tests compare the package against.

Every local operator is widened to the whole register with ``np.kron`` and
applied by full matrix products, and single-qubit noise runs through its
Kraus operators; these functions take raw matrices plus a label tuple. Count
statistics are evaluated per outcome and per Monte Carlo trial, with one
scalar Poisson draw per histogram cell. These are slow but transparent.
"""
from functools import reduce

import numpy as np

from graphqec import kernel
from graphqec.sampling import _MC_STREAM, CountRecord


def embed_operator(matrix, op_labels, register_labels) -> np.ndarray:
    """Embed an operator acting on ``op_labels`` into the full register,
    identity on the remaining qubits, respecting the register label order."""
    op_labels, register_labels = tuple(op_labels), tuple(register_labels)
    n, k = len(register_labels), len(op_labels)
    rest = [q for q in register_labels if q not in op_labels]
    full = np.kron(np.asarray(matrix, dtype=complex), np.eye(2 ** (n - k), dtype=complex))
    # full acts on the order op_labels + rest; permute to register order
    cur = list(op_labels) + rest
    perm = [cur.index(q) for q in register_labels]
    t = np.transpose(full.reshape([2] * (2 * n)), perm + [n + p for p in perm])
    return t.reshape(2 ** n, 2 ** n)


def conjugate(rho, labels, u, targets) -> np.ndarray:
    full = embed_operator(u, targets, labels)
    return full @ rho @ full.conj().T


def expectation(rho, labels, obs, obs_labels) -> complex:
    return np.trace(embed_operator(obs, obs_labels, labels) @ rho)


def partial_trace(rho, labels, keep) -> np.ndarray:
    """out[a, b] = Tr(rho (|b><a| (x) I)), with |a>, |b> over ``keep``."""
    d = 2 ** len(keep)
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[b, a] = 1
            out[a, b] = expectation(rho, labels, unit, keep)
    return out


def projective_measure(rho, labels, qubit, basis, outcome):
    """(probability, normalized post-measurement matrix without ``qubit``)."""
    v = kernel.BASIS_VECTORS[basis][outcome]
    proj = embed_operator(np.outer(v, v.conj()), (qubit,), labels)
    p = np.trace(proj @ rho).real
    rest = tuple(q for q in labels if q != qubit)
    return p, partial_trace(proj @ rho @ proj, labels, rest) / p


def outcome_probabilities(rho, labels, bases) -> dict[str, float]:
    out = {}
    for i in range(2 ** len(labels)):
        bits = format(i, f"0{len(labels)}b")
        vecs = [kernel.BASIS_VECTORS[bases[q]][int(b)] for q, b in zip(labels, bits)]
        proj = reduce(np.kron, [np.outer(v, v.conj()) for v in vecs])
        out[bits] = np.trace(proj @ rho).real
    return out


def apply_kraus(rho, labels, kraus, qubit) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        full = embed_operator(k, (qubit,), labels)
        out += full @ rho @ full.conj().T
    return out


def apply_noise(rho, labels, model) -> np.ndarray:
    """Per-qubit depolarizing then dephasing Kraus maps, then white noise."""
    for q in labels:
        p, dq = model.depolarizing_for(q), model.dephasing_for(q)
        rho = apply_kraus(rho, labels, [np.sqrt(1 - 3 * p / 4) * kernel.I]
                          + [np.sqrt(p / 4) * m for m in (kernel.X, kernel.Y, kernel.Z)], q)
        rho = apply_kraus(rho, labels, [np.sqrt(1 - dq) * kernel.I, np.sqrt(dq) * kernel.Z], q)
    dim = 2 ** len(labels)
    v = model.visibility
    return v * rho + (1 - v) * np.eye(dim) / dim


def estimate_expectation(record, support) -> float:
    """Parity estimator over a CountRecord's histogram, one outcome at a time."""
    if record.total == 0:
        raise ValueError("empty histogram")
    positions = [record.qubits.index(q) for q in support]
    acc = 0
    for bits, c in record.counts.items():
        parity = sum(int(bits[i]) for i in positions) % 2
        acc += -c if parity else c
    return acc / record.total


def resample_counts(records, rng) -> list:
    """Poisson-resample every histogram cell, one scalar draw per sorted cell."""
    out = []
    for r in records:
        counts = {bits: int(rng.poisson(c)) for bits, c in sorted(r.counts.items())}
        out.append(CountRecord(r.setting, {b: c for b, c in counts.items() if c > 0},
                               r.expected_total))
    return out


def monte_carlo_uncertainty(statistic, records, trials, seed) -> tuple[float, float]:
    """Re-run a per-record statistic on every trial's resampled records."""
    vals = np.array([
        statistic(resample_counts(records, np.random.default_rng((int(seed), _MC_STREAM, t))))
        for t in range(trials)])
    return float(vals.mean()), float(vals.std())
