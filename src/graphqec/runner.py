"""Configuration-driven experiment runner.

Each experiment kind reproduces one of the published analyses as a
machine-readable bundle: a summary JSON, CSV tables and optional SVG
figures, together with a provenance block (config hash, seed, version).
Re-running with an identical config and seed reproduces the bundle
byte for byte.

Every kind reads its states as Pauli vectors and builds no amplitudes. The
probes enter as the exact cardinal Bloch vectors ``code.CARDINAL_BLOCH``,
and every ideal reference comes from the encoding's exact input map
(``code._input_map``): the resource is the encoding input of |+>, and each
probe's logical target is its ideal encoding (:func:`_ideal_vector`). Each
holds only 0 and +-1, so an ideal bundle holds 0, +-0.5 and +-1 exactly
where the closed form does, and a logical fidelity is (1 + t.r) / 2 on the
target's exact Bloch vector t.

Tables and figures hold Python scalars only: a block of floats is rounded
and converted once, at the array, with ``(np.round(a, 12) + 0.0).tolist()``,
never cell by cell, so no numpy scalar reaches the CSV or SVG writers.
Adding 0.0 after rounding turns ``-0.0`` into ``0.0``, so residue of either
sign prints the same; the scalar cells are rounded the same way. A CSV
table is then one ``%s`` template filled with its cells, the bytes
``csv.writer`` writes for such cells; a table with a cell csv would quote or
write otherwise goes through ``csv.writer`` itself
(:meth:`ReportBundle.table_csv`). The dots of a Bloch figure are one
``%``-template filled from coordinates computed at the array. The summary
is written by :func:`_json_text` in one pass, as the text
``json.dumps(..., indent=2, sort_keys=True)`` gives. It converts nothing:
every builder hands it Python values only, and a value ``json.dumps``
refuses raises there too. A config holds Python values only (its
constructor stores each number in its field's one type, ``int`` or
``float``), so its digest is the stdlib ``json.dumps`` of it, and ``500``
and ``500.0`` counts are one config.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import pathlib
from dataclasses import dataclass, field, fields as dc_fields, replace
from functools import cache

import numpy as np

from . import __version__, sampling
from .code import (ANCILLA, CARDINAL_BLOCH, CODE_QUBITS, PROBE_NAMES, PROBE_TARGETS,
                   _conjugate_pauli_vector, _encoded_vectors, _error_signs, _input_map,
                   _project_pauli_vector, _recovery_ptm, _syndromes_of_vector, logical_ops,
                   parse_error_spec, predicted_syndrome_signs, recovery_recipe,
                   syndrome_operators)
from .graphs import RESOURCE, stabilizer_generators
from .pauli import _LETTER_INDEX, PauliString, _read_words
from .sampling import (MAX_TRIALS, NoiseModel, _is_number, _sample_settings, _witness_estimates,
                       counts_to_csv_rows)
from .tomography import (ChannelSample, _logical_of_vector, _vector_fidelity,
                         average_probe_fidelity, bloch_image, chi_hadamard, chi_identity,
                         logical_density_from_expectations, process_fidelity,
                         reconstruct_chi)
from .witnesses import (_witness_result, box_witness, fidelity_lower_bound, ghz_witness,
                        pair_witness, resource_witness)

KINDS = ("resource-witness", "encode-tomography", "encode-channel",
         "loss-recovery", "syndrome-table", "noise-sweep")
BYPRODUCT_MODES = ("condition0", "correct", "raw")
FORMATS = ("json", "csv", "svg")
MAX_SWEEP_POINTS = 100_000  # each point is one row of sweep.csv
# Each plain config field -> (its test, what its value must be). The config
# checks every field here, and ``analyze-counts`` its --trials and --seed;
# a value that fails is refused as "must be <what>, got <value!r>".
_RULES = {
    "kind": (lambda v: v in KINDS, f"one of {KINDS}"),
    "probes": (lambda v: all(isinstance(p, str) and p in PROBE_NAMES for p in v)
               and 0 < len(set(v)) == len(v),
               f"a non-empty subset of {PROBE_NAMES}"),
    "lost": (lambda v: _is_number(v, numbers.Real) and v in CODE_QUBITS,
             f"a code qubit {CODE_QUBITS}"),
    "seed": (lambda v: _is_number(v, numbers.Integral) and v >= 0, "a non-negative integer"),
    "counts_per_setting": (lambda v: _is_number(v, numbers.Real)
                           and 0 < v <= sampling.MAX_EXPECTED_COUNTS,
                           f"a number in (0, {sampling.MAX_EXPECTED_COUNTS:g}]"),
    "trials": (lambda v: _is_number(v, numbers.Integral) and 100 <= v <= MAX_TRIALS,
               f"an integer in [100, {MAX_TRIALS}]"),
    "byproduct": (lambda v: v in BYPRODUCT_MODES, f"one of {BYPRODUCT_MODES}"),
    "sweep_points": (lambda v: _is_number(v, numbers.Integral) and 3 <= v <= MAX_SWEEP_POINTS,
                     f"an integer in [3, {MAX_SWEEP_POINTS}]"),
    "target_fidelity": (lambda v: _is_number(v, numbers.Real) and 0 < v < 1,
                        "a number in (0,1)"),
    "out_dir": (lambda v: v is None or isinstance(v, str) and "\0" not in v,
                "a directory path or null"),
}


def _problems(values: dict) -> dict[str, str]:
    """The problem of each field -> value in ``values`` that fails its rule
    in :data:`_RULES`."""
    return {name: f"must be {_RULES[name][1]}, got {value!r}"
            for name, value in values.items() if not _RULES[name][0](value)}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``fields`` maps field -> problem."""

    def __init__(self, fields: dict[str, str]):
        self.fields = dict(fields)
        super().__init__("invalid config: " + "; ".join(f"{k}: {v}" for k, v in
                                                        sorted(self.fields.items())))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    noise: NoiseModel = field(default_factory=NoiseModel)
    probes: tuple[str, ...] = PROBE_NAMES
    error: str = "none"
    lost: int = 4
    counts_per_setting: float = 500.0
    trials: int = 200
    seed: int = 12345
    byproduct: str = "condition0"
    sweep_points: int = 11
    target_fidelity: float = 0.78
    out_dir: str | None = None
    formats: tuple[str, ...] = ("json", "csv")

    def __post_init__(self):
        for key in ("probes", "formats"):
            value = getattr(self, key)
            try:
                if isinstance(value, str):  # not read letter by letter
                    raise TypeError
                object.__setattr__(self, key, tuple(value))
            except TypeError:
                raise ConfigError({key: f"must be a list, got {value!r}"}) from None
        problems = _problems({name: getattr(self, name) for name in _RULES})
        if not isinstance(self.noise, NoiseModel):
            problems["noise"] = f"must be an object of noise fields, got {self.noise!r}"
        else:
            keyed = {q for rates in (self.noise.depolarizing, self.noise.dephasing)
                     if isinstance(rates, dict) for q in rates}
            if keyed - RESOURCE.vertices:
                problems["noise"] = (f"qubits {sorted(keyed - RESOURCE.vertices)} are not in "
                                     f"the register {sorted(RESOURCE.vertices)}")
        bad_fmt = [f for f in self.formats if f not in FORMATS]
        if bad_fmt:
            problems["formats"] = f"unknown formats {bad_fmt}, allowed {FORMATS}"
        elif len(set(self.formats)) < len(self.formats):
            problems["formats"] = f"must not repeat a format, got {self.formats!r}"
        try:
            if not isinstance(self.error, str):
                raise ValueError(f"must be an error spec like 'Z@1' or 'none', "
                                 f"got {self.error!r}")
            if not set(parse_error_spec(self.error).support) <= set(CODE_QUBITS):
                raise ValueError(f"must act on a code qubit {CODE_QUBITS}, got {self.error!r}")
        except ValueError as exc:
            problems["error"] = str(exc)
        if problems:
            raise ConfigError(problems)
        for name, kind in _NUMBER_FIELDS.items():
            object.__setattr__(self, name, kind(getattr(self, name)))

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dc_fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError({k: "unknown field" for k in unknown})
        kwargs = dict(data)
        if "noise" in kwargs and isinstance(kwargs["noise"], dict):
            try:
                kwargs["noise"] = NoiseModel(**kwargs["noise"])
            except (TypeError, ValueError) as exc:
                raise ConfigError({"noise": str(exc)}) from exc
        try:
            return ExperimentConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError({"<config>": str(exc)}) from exc

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)``, built field by field: the noise model
        becomes a dict whose per-qubit maps are copies, every other value is
        immutable and shared."""
        out = {name: getattr(self, name) for name in _CONFIG_FIELDS}
        noise = {name: getattr(self.noise, name) for name in _NOISE_FIELDS}
        out["noise"] = {k: dict(v) if isinstance(v, dict) else v for k, v in noise.items()}
        return out

    def digest(self) -> str:
        return _digest(self.to_dict())


_CONFIG_FIELDS = tuple(f.name for f in dc_fields(ExperimentConfig))
_NOISE_FIELDS = tuple(f.name for f in dc_fields(NoiseModel))
# Each number field's one type: a checked number is stored as it, so that
# counts of 500 and 500.0, or a lost qubit 4.0 and 4, are one config.
_NUMBER_FIELDS = {"lost": int, "trials": int, "seed": int, "sweep_points": int,
                  "counts_per_setting": float, "target_fidelity": float}


def _digest(config_dict: dict) -> str:
    """SHA-256 of the canonical JSON of a config's :meth:`~ExperimentConfig.to_dict`:
    ``json.dumps`` with sorted keys. A config's per-qubit maps are keyed by
    qubit numbers 1 to 6, which sort as their strings do."""
    blob = json.dumps(config_dict, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` in one pass, with every
    key turned into ``str`` before the keys are sorted. It converts no value:
    what ``json.dumps`` refuses, such as a numpy integer, an array or a
    complex number, raises ``TypeError`` here too.

    ``nl`` is a newline plus the indent of the line ``obj`` starts on. A list
    of plain finite floats is written with one join."""
    kind = type(obj)
    if kind is float:
        return _json_float(obj)
    if kind is str:
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        obj = {str(k): v for k, v in obj.items()}
        return "{" + inner + ("," + inner).join(
            [f"{_encode_str(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(x) is float for x in obj):
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in text:  # no repr of a finite float holds an "n"; nan and inf do
                return "[" + inner + text + nl + "]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


@dataclass
class ReportBundle:
    summary: dict
    tables: dict[str, list]
    figures: dict[str, str]
    provenance: dict

    def summary_json(self) -> str:
        return _json_text({"summary": self.summary, "provenance": self.provenance}) + "\n"

    def table_csv(self, name: str) -> str:
        """The table as ``csv.writer(lineterminator="\\n")`` writes it. A
        table whose rows all have one width of at least two is filled into
        one ``%s`` template, each cell written by ``str`` as csv writes a
        Python scalar. A table that is ragged or one column wide, or whose
        text shows a cell csv would quote or write otherwise (a comma, quote,
        CR or newline inside a cell, a ``None``), is written by
        ``csv.writer``."""
        rows = self.tables[name]
        widths = set(map(len, rows))
        if len(widths) == 1 and (width := widths.pop()) > 1:
            text = ("\n".join([",".join(["%s"] * width)] * len(rows)) + "\n") \
                % tuple(itertools.chain.from_iterable(rows))
            if not ('"' in text or "\r" in text or "None" in text
                    or text.count("\n") != len(rows)
                    or text.count(",") != (width - 1) * len(rows)):
                return text
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    def write(self, out_dir, formats=None) -> list[str]:
        """Write the bundle's files into ``out_dir`` and return their paths.

        The directory is made by one ``os.makedirs``, and each path is the
        string ``str(pathlib.Path(out_dir) / name)`` spells, built once by
        string concatenation: pathlib drops a ``./`` prefix and doubled or
        trailing slashes, so ``"."`` gives the bare file names.

        Each file's text is encoded once, as UTF-8, and written by
        :func:`_write_in_place`: one ``os.open`` without ``O_TRUNC`` (mode
        ``0o666`` before the umask), ``os.write`` until every byte is written,
        then ``os.ftruncate`` to the new length. A rerun into the same
        directory thus overwrites each file in place. The bytes, the inode and
        the mode are those an ``O_TRUNC`` open gives, but truncating a
        non-empty file to zero first frees its blocks only for the write to
        allocate them again, which on some filesystems costs ten times the
        write itself. A file that cannot be written raises ``OSError`` naming
        it."""
        formats = tuple(formats) if formats else tuple(self.provenance.get("formats", FORMATS))
        files = {}
        if "json" in formats:
            files["summary.json"] = self.summary_json()
        if "csv" in formats:
            files.update((f"{name}.csv", self.table_csv(name)) for name in sorted(self.tables))
        if "svg" in formats:
            files.update((f"{name}.svg", self.figures[name]) for name in sorted(self.figures))
        out = str(pathlib.Path(out_dir))
        os.makedirs(out, exist_ok=True)
        prefix = "" if out == "." else os.path.join(out, "")
        for name, text in files.items():
            _write_in_place(prefix + name, text.encode())
        return [prefix + name for name in files]


def _write_in_place(path, data: bytes) -> None:
    """Make the file at ``path`` hold exactly ``data``, writing over its old
    bytes rather than truncating it first."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _probe_vectors(probes, noise: NoiseModel, byproduct: str) -> dict[str, np.ndarray]:
    """Pauli vector of each probe's encoded state on ``CODE_QUBITS``, all
    built in one batch by ``code._encoded_vectors`` from the probes' exact
    Bloch 4-vectors (``code.CARDINAL_BLOCH``)."""
    blochs = [(1.0, *CARDINAL_BLOCH[p]) for p in probes]
    return dict(zip(probes, _encoded_vectors(blochs, noise, byproduct)))


_LOGICAL_NAMES = ("xbar", "ybar", "zbar")


@cache
def _logical_readout() -> tuple[tuple[dict[int, str], ...], tuple]:
    """(settings, parities) of the sampled logical read-out: each logical
    operator measured with its own letters and Z on the other code qubits,
    and read as the parity of its support in its own setting (see
    ``sampling._parity_plan``)."""
    ops = [getattr(logical_ops(), name) for name in _LOGICAL_NAMES]
    settings = tuple({q: "Z" for q in CODE_QUBITS} | dict(op.letters) for op in ops)
    return settings, tuple(enumerate(op.support for op in ops))


def _sampled_logical_expectations(records) -> dict:
    """Sampled estimate of each logical operator from its record of the
    :func:`_logical_readout` settings: one three-read parity plan."""
    plan = sampling._parity_plan(tuple(r.setting for r in records), _logical_readout()[1])
    return dict(zip(_LOGICAL_NAMES,
                    sampling._parities(plan, sampling._concatenated(records)).tolist()))


def _exact_witness(vec, labels, spec):
    """The witness ``spec`` read off the Pauli vector ``vec`` of a state on
    ``labels``; a qubit outside the witness reads index 0, its partial trace."""
    return _witness_result(spec, _read_words(vec, labels, spec.words))


def _witness_block(vec, labels, spec, estimates):
    """Exact witness value, for the state with Pauli vector ``vec`` on
    ``labels``, plus ``estimates``: the estimate and Monte Carlo bars from
    the histograms drawn of its settings (see ``_witness_estimates``)."""
    exact = _exact_witness(vec, labels, spec)
    estimate, mc_mean, mc_std = estimates
    block = {
        "exact": exact.value,
        "estimate": estimate,
        "mc_mean": mc_mean,
        "mc_std": mc_std,
        "fidelity_lower_bound": fidelity_lower_bound(exact.value),
        "gme_witnessed": exact.value < 0,
    }
    return block, exact


def _chi_block(chi, chi_ref) -> dict:
    """The summary block of ``chi``: the sphere average is taken from the
    process fidelity, as ``sphere_average_fidelity`` takes it."""
    fidelity = process_fidelity(chi, chi_ref)
    return {
        "matrix_re": chi.matrix.real.tolist(),
        "matrix_im": chi.matrix.imag.tolist(),
        "process_fidelity": fidelity,
        "sphere_average_fidelity": (2 * fidelity + 1) / 3,
        "min_eigenvalue": chi.min_eigenvalue,
        "trace_preservation_defect": chi.trace_preservation_defect(),
    }


@cache
def _bloch_grid() -> np.ndarray:
    """Read-only (42, 3) Bloch vectors: six axis points, three great circles."""
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for k in range(12):
        ang = 2 * math.pi * k / 12
        c, s = math.cos(ang), math.sin(ang)
        pts += [(c, s, 0), (0, c, s), (c, 0, s)]
    out = np.array(pts, dtype=float)
    out.setflags(write=False)
    return out


def _rounded(a) -> list:
    """``a`` rounded to 12 decimals as nested lists of Python floats, with
    ``-0.0`` written as ``0.0``."""
    return (np.round(a, 12) + 0.0).tolist()


def _round(x: float) -> float:
    """One table cell: ``x`` rounded to 12 decimals, ``-0.0`` written as ``0.0``."""
    return round(x, 12) + 0.0


def _bloch_table(grid, mapped) -> list:
    rows = [("x_in", "y_in", "z_in", "x_out", "y_out", "z_out")]
    rows += map(tuple, _rounded(np.hstack([grid, mapped])))
    return rows


def _chi_table(chi) -> list:
    names = ("I", "X", "Y", "Z")
    real, imag = _rounded(chi.matrix.real), _rounded(chi.matrix.imag)
    return [("row", "col", "re", "im")] + [(names[i], names[j], real[i][j], imag[i][j])
                                           for i in range(4) for j in range(4)]


def _witness_table(named_results) -> list:
    rows = [("witness", "term", "coefficient", "expectation", "raw_expectation")]
    for name, result in named_results:
        for label, coeff, signed, raw in result.terms:
            rows.append((name, label, coeff, _round(signed), _round(raw)))
    return rows


# -- tiny hand-rolled SVG (no plotting dependency) ---------------------------

def _svg_bars(labels, values, title: str) -> str:
    width, height, base = 40 + 44 * len(values), 220, 110
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height + 40}">',
             f'<text x="10" y="16" font-size="12">{title}</text>',
             f'<line x1="20" y1="{base}" x2="{width - 10}" y2="{base}" stroke="black"/>']
    for i, (lab, val) in enumerate(zip(labels, values)):
        x = 30 + 44 * i
        h = abs(val) * 90
        y = base - h if val >= 0 else base
        parts.append(f'<rect x="{x}" y="{y:.1f}" width="30" height="{h:.1f}" '
                     f'fill="{"steelblue" if val >= 0 else "indianred"}"/>')
        parts.append(f'<text x="{x}" y="{base + 104}" font-size="7" '
                     f'transform="rotate(-60 {x} {base + 104})">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_bloch(points_out, title: str) -> str:
    """x-z projections of the Bloch grid and of its image ``points_out``,
    side by side."""
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="480" height="250">',
             f'<text x="10" y="14" font-size="12">{title} (x-z projection)</text>',
             _svg_grid_disc(), _svg_disc(350, points_out, "indianred"), "</svg>"]
    return "\n".join(parts) + "\n"


def _svg_disc(cx: int, points: np.ndarray, color: str) -> str:
    """The lines of the disc at ``cx`` with a dot at (cx + 100 x, 120 - 100 z)
    for each (n, 3) Bloch point: one ``%``-template filled from the
    coordinates computed at the array."""
    xy = np.stack([cx + 100 * points[:, 0], 120 - 100 * points[:, 2]], axis=1)
    lines = [f'<circle cx="{cx}" cy="120" r="100" fill="none" stroke="gray"/>']
    lines += [f'<circle cx="%.1f" cy="%.1f" r="2.5" fill="{color}"/>'] * len(xy)
    return "\n".join(lines) % tuple(xy.reshape(-1).tolist())


@cache
def _svg_grid_disc() -> str:
    """The input half of every Bloch figure: the disc of :func:`_bloch_grid`."""
    return _svg_disc(120, _bloch_grid(), "steelblue")


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

@cache
def _ideal_vector(key: str) -> np.ndarray:
    """Read-only Pauli vector of an ideal state the kinds read as a target,
    from the encoding's exact input map (``code._input_map``): the resource
    on qubits 1-5 (``"resource"``), which is the encoding input of |+>; or
    the ideal encoding of the probe ``key`` on ``CODE_QUBITS``, its logical
    target ``PROBE_TARGETS[key]``. Every entry is exactly 0 or +-1."""
    if key == "resource":
        out = (_input_map() @ (1.0, *CARDINAL_BLOCH["+"])).reshape([4] * 5)
    else:
        out = _encoded_vectors([(1.0, *CARDINAL_BLOCH[key])], NoiseModel(), "condition0")[0]
    out.setflags(write=False)
    return out


def _run_resource_witness(cfg: ExperimentConfig):
    """Every value is read off the resource's Pauli vector times the noise
    diagonal, the box witness after the ancilla's Z projection of it."""
    labels = (1, 2, 3, 4, 5)
    vec = _ideal_vector("resource")
    rho = vec * sampling._noise_factors(labels, cfg.noise)
    # persistency check: remove the ancilla with a Z measurement, then the
    # box witness on the remaining code qubits
    _, rho_box = _project_pauli_vector(rho, labels, ANCILLA, "Z", 0)
    spec, box_spec = resource_witness(), box_witness()
    (records, box_records), mc = _sample_settings(
        [(rho, labels, spec.settings, 100),
         (rho_box, CODE_QUBITS, box_spec.settings, 200)],
        cfg.counts_per_setting, cfg.seed)
    estimates = _witness_estimates([(records, spec), (box_records, box_spec)], cfg.trials, mc)
    gens = stabilizer_generators(RESOURCE)
    block, exact = _witness_block(rho, labels, spec, estimates[0])
    summary = {
        "resource5": block,
        "state_fidelity": _vector_fidelity(rho, vec),
        "stabilizer_expectations": dict(zip(map(str, gens), _read_words(rho, labels, gens))),
    }
    box_block, box_exact = _witness_block(rho_box, CODE_QUBITS, box_spec, estimates[1])
    summary["box4_after_ancilla_z"] = box_block
    tables = {
        "witness_terms": _witness_table([("resource5", exact), ("box4", box_exact)]),
        "counts": counts_to_csv_rows(records + box_records),
    }
    figures = {"witness_terms": _svg_bars([r[0] for r in exact.terms],
                                          [r[2] for r in exact.terms],
                                          "resource witness terms")}
    return summary, tables, figures


def _probe_witnesses(probe) -> list:
    """The witnesses certifying one encoded probe, as ``(name, stream offset,
    spec, frame)``: the box witness on |0> (on |1> in the frame of the Pauli
    word ``frame``, Zbar; ``None`` elsewhere), the rotated GHZ witness on |+>
    and a pair witness on each pair of |+y>, read on that pair."""
    if probe == "0":
        return [("box4", 0, box_witness(), None)]
    if probe == "1":
        return [("box4_zbar_frame", 0, box_witness(), logical_ops().zbar)]
    if probe == "+":
        return [("ghz4", 0, ghz_witness(), None)]
    return [(f"pair2_{a}{b}", 10 * (i + 1), pair_witness((a, b)), None)
            for i, (a, b) in enumerate(((1, 2), (4, 5)))]


def _in_frame(vec: np.ndarray, frame) -> np.ndarray:
    """The Pauli vector a probe witness reads: the encoded ``vec`` on
    ``CODE_QUBITS``, conjugated by the word ``frame`` (if any) as sign flips."""
    return vec if frame is None else _conjugate_pauli_vector(vec, frame, CODE_QUBITS)


def _run_encode_tomography(cfg: ExperimentConfig):
    """Logical tomography, fidelity and witnesses of each encoded probe, exact
    and sampled, all read off the probes' Pauli vectors from one batch. Every
    histogram of the run is drawn in one :func:`_sample_settings` call, and
    every witness's Monte Carlo bars come from one :func:`_witness_estimates`
    call."""
    summary = {"probes": {}}
    matrix_rows = [("probe", "entry", "re", "im")]
    vectors = _probe_vectors(cfg.probes, cfg.noise, cfg.byproduct)
    witnesses = {probe: [(name, _in_frame(vec, frame), spec, 300 + 100 * idx + offset)
                         for name, offset, spec, frame in _probe_witnesses(probe)]
                 for idx, (probe, vec) in enumerate(vectors.items())}
    jobs = []
    for idx, (probe, vec) in enumerate(vectors.items()):
        jobs += [(framed, CODE_QUBITS, spec.settings, stream)
                 for _, framed, spec, stream in witnesses[probe]]
        jobs.append((vec, CODE_QUBITS, _logical_readout()[0], 700 + 10 * idx))
    drawn, mc = _sample_settings(jobs, cfg.counts_per_setting, cfg.seed)
    drawn, items, readouts = iter(drawn), [], {}
    for probe in vectors:
        items += [(next(drawn), spec) for _, _, spec, _ in witnesses[probe]]
        readouts[probe] = next(drawn)
    estimates = iter(_witness_estimates(items, cfg.trials, mc))
    for probe, vec in vectors.items():
        ldm = _logical_of_vector(vec, CODE_QUBITS)
        target_key = PROBE_TARGETS[probe]
        target_bloch = CARDINAL_BLOCH[target_key]  # F = (1 + t.r) / 2 for Bloch r
        entry = {
            "target": target_key,
            "logical_bloch": list(ldm.bloch),
            "fidelity_logical": (1 + float(np.dot(target_bloch, ldm.bloch))) / 2,
            "fidelity_state": _vector_fidelity(vec, _ideal_vector(probe)),
            "witnesses": {
                name: _witness_block(framed, CODE_QUBITS, spec, next(estimates))[0]
                for name, framed, spec, _ in witnesses[probe]},
        }
        est = _sampled_logical_expectations(readouts[probe])
        try:
            ldm_s = logical_density_from_expectations(est["xbar"], est["ybar"], est["zbar"])
            entry["sampled"] = {
                "logical_bloch": list(ldm_s.bloch),
                "fidelity_logical": (1 + float(np.dot(target_bloch, ldm_s.bloch))) / 2,
                "negative_eigenvalue_flag": ldm_s.negative_eigenvalue,
            }
        except ValueError as exc:
            entry["sampled"] = {"unphysical": True, "detail": str(exc),
                                "expectations": est}
        summary["probes"][probe] = entry
        real, imag = _rounded(ldm.matrix.real), _rounded(ldm.matrix.imag)
        matrix_rows += [(probe, f"{r}{c}", real[r][c], imag[r][c])
                        for r in (0, 1) for c in (0, 1)]
    tables = {"logical_matrices": matrix_rows}
    return summary, tables, {}


def _channel_report(outputs: dict, chi_ref, title: str):
    """Chi of the channel with these probe outputs, as its summary block, its
    Bloch-grid and chi tables and its Bloch figure."""
    chi = reconstruct_chi(ChannelSample(outputs))
    grid = _bloch_grid()
    mapped = bloch_image(chi, grid)
    tables = {"bloch_points": _bloch_table(grid, mapped), "chi": _chi_table(chi)}
    figures = {"bloch": _svg_bloch(mapped, title)}
    return _chi_block(chi, chi_ref), tables, figures


def _run_encode_channel(cfg: ExperimentConfig):
    """Chi of the encoding channel from the logical read-out of each probe,
    three components of its encoded Pauli vector."""
    outputs = {p: _logical_of_vector(vec, CODE_QUBITS)
               for p, vec in _probe_vectors(PROBE_NAMES, cfg.noise, cfg.byproduct).items()}
    chi_block, tables, figures = _channel_report(outputs, chi_hadamard(), "encoding channel")
    return {"chi": chi_block, "reference": "hadamard"}, tables, figures


def _run_loss_recovery(cfg: ExperimentConfig):
    """Each probe's encoded Pauli vector loses qubit ``lost`` (index 0 on its
    axis is the partial trace); one matmul with the recipe's cached transfer
    matrix gives each output's Pauli 4-vector (b0, r), and its fidelity
    (b0 + r.s) / 2 to the probe's Bloch s. The outputs are built trusted: the
    identity entry of every encoded vector is exactly 1 and the matrix's
    trace row is exactly e_0, so b0 == 1 exactly, and the recovery is a
    channel, so |r| <= 1 (property tests hold both)."""
    recipe = recovery_recipe(cfg.lost)
    keep = tuple(q for q in CODE_QUBITS if q != cfg.lost)
    blochs = np.array([(1.0, *CARDINAL_BLOCH[p]) for p in PROBE_NAMES])
    traced = _encoded_vectors(blochs, cfg.noise, cfg.byproduct).take(
        0, axis=1 + CODE_QUBITS.index(cfg.lost))
    recovered = traced.reshape(len(PROBE_NAMES), -1) @ _recovery_ptm(recipe, keep).T
    outputs = {p: logical_density_from_expectations(*b[1:])
               for p, b in zip(PROBE_NAMES, recovered)}
    fidelities = dict(zip(PROBE_NAMES, ((recovered * blochs).sum(axis=1) / 2).tolist()))
    chi_block, tables, figures = _channel_report(
        outputs, chi_identity(), f"recovery after losing qubit {cfg.lost}")
    summary = {
        "lost": cfg.lost,
        "recipe": {
            "helpers": [list(h) for h in recipe.helpers],
            "output": recipe.output,
            "corrections": list(recipe.correction_labels),
            "frame": recipe.frame_label,
        },
        "probe_fidelities": fidelities,
        "average_fidelity": average_probe_fidelity(fidelities),
        "chi": chi_block,
        "reference": "identity",
    }
    return summary, tables, figures


@cache
def _syndrome_case(letter: str, loc: int) -> tuple[tuple[int, int, int], tuple[float, ...]]:
    """(predicted, flips) of the Pauli error ``letter`` on code qubit ``loc``:
    the sign pattern ``predicted_syndrome_signs`` gives it, and the sign
    ``code._error_signs(letter)`` puts on each syndrome, at that syndrome's
    letter on ``loc``."""
    predicted = predicted_syndrome_signs(PauliString.single(loc, letter))
    flips = tuple(float(_error_signs(letter)[_LETTER_INDEX[s.letter(loc)]])
                  for s in syndrome_operators())
    return predicted, flips


def _run_syndrome_table(cfg: ExperimentConfig):
    """Syndrome expectations and signs under each single-qubit Pauli error,
    beside the signs the commutation rules predict.

    Each probe's encoded state is built as one Pauli vector, all probes in
    one batch (:func:`_probe_vectors`), and its three syndromes are read off
    that vector once. A Pauli error L on code qubit q flips the sign of each
    component whose letter at q is neither I nor L, so under it a syndrome
    reads its error-free value times ``code._error_signs(L)`` at its own
    letter on q. Those signs come from the dense matrices, so the ``match``
    column still compares a measured pattern with
    ``predicted_syndrome_signs``, two independent computations; both are
    constants of the code (:func:`_syndrome_case`). Each value is a Pauli
    expectation of a state, so it lies in [-1, 1] unchecked (property tests
    hold it there).
    """
    rows = [("error", "location", "probe", "s1", "s2", "s3",
             "sign1", "sign2", "sign3", "pred1", "pred2", "pred3", "match")]
    mismatches = 0
    vectors = _probe_vectors(cfg.probes, cfg.noise, cfg.byproduct)
    syndromes = {p: _syndromes_of_vector(vec, CODE_QUBITS) for p, vec in vectors.items()}
    err = parse_error_spec(cfg.error)  # one injected error, or the identity: all 12
    cases = [(err.letter(q), q) for q in err.support] \
        or [(letter, loc) for letter in "XYZ" for loc in CODE_QUBITS]
    for letter, loc in cases:
        predicted, flips = _syndrome_case(letter, loc)
        for probe in cfg.probes:
            values = [v * f for v, f in zip(syndromes[probe], flips)]
            signs = tuple(1 if v >= 0 else -1 for v in values)
            match = signs == predicted
            mismatches += 0 if match else 1
            rows.append((f"{letter}@{loc}", loc, probe, *map(_round, values),
                         *signs, *predicted, match))
    summary = {
        "patterns_checked": (len(rows) - 1),
        "mismatches": mismatches,
        "all_match": mismatches == 0,
        "no_error_syndromes": {p: list(map(_round, values)) for p, values in syndromes.items()},
    }
    return summary, {"syndrome_table": rows}, {}


def _calibrated_visibility(f0: float, f1: float, target: float) -> float:
    """Visibility v* at which the encoded |0> fidelity F(v) hits ``target``,
    given F(0) = ``f0`` and F(1) = ``f1``.

    F is affine in v (see :func:`_run_noise_sweep`), so v* is read off the
    line through F(0) and F(1), clamped to [0, 1] for unreachable targets.
    """
    if target >= f1:
        return 1.0
    if target <= f0:
        return 0.0
    return (target - f0) / (f1 - f0)


def _run_noise_sweep(cfg: ExperimentConfig):
    """White-noise sweep of the resource and encoded |0>, then every witness
    at the visibility v* that calibrates the encoded |0> fidelity.

    Every column is affine in the visibility v: white noise mixes a state
    with I/2^n, fidelities and witnesses are linear in the state, and at
    post-resource the |0> probe's ancilla X outcome has probability 1/2 at
    every v, so conditioning on it does not bend the line. The encoded |0>
    fidelity, the resource witness and the resource fidelity are therefore
    computed at v = 0 and v = 1 only; each row reads
    ``(1 - v) * end0 + v * end1``, the endpoints exactly at v = 0 and 1,
    and v* comes from the same two fidelities. The resource, at v = 0, 1
    and v*, is its Pauli vector times the noise diagonal, and the encoded
    probes are Pauli vectors: every fidelity and witness is read off them.
    """
    labels5 = (1, 2, 3, 4, 5)
    vec5 = _ideal_vector("resource")
    spec = resource_witness()
    plus = _ideal_vector("0")  # |+_L>, the ideal encoding of |0>
    ends = []  # (encoded |0> fidelity, resource witness, resource fidelity)
    for noise in (replace(cfg.noise, visibility=v) for v in (0.0, 1.0)):
        rho5 = vec5 * sampling._noise_factors(labels5, noise)
        ends.append((_vector_fidelity(_probe_vectors(("0",), noise, "condition0")["0"], plus),
                     _exact_witness(rho5, labels5, spec).value,
                     _vector_fidelity(rho5, vec5)))
    rows = [("visibility", "encoded0_fidelity", "resource_witness",
             "fidelity_lower_bound", "resource_fidelity", "bound_holds")]
    for v in np.linspace(0.0, 1.0, cfg.sweep_points):  # endpoints exactly 0.0 and 1.0
        v = float(v)
        fid0, wit, fid5 = ((1 - v) * end0 + v * end1 for end0, end1 in zip(*ends))
        bound = fidelity_lower_bound(wit)
        rows.append((*map(_round, (v, fid0, wit, bound, fid5)), fid5 >= bound - 1e-12))

    v_star = _calibrated_visibility(ends[0][0], ends[1][0], cfg.target_fidelity)
    model = replace(cfg.noise, visibility=v_star)
    rho5 = vec5 * sampling._noise_factors(labels5, model)
    wit_star = _exact_witness(rho5, labels5, spec).value
    witness_values = {"resource5": wit_star}
    encoded = _probe_vectors(("0", "+", "+y"), model, "condition0")
    for probe, vec in encoded.items():
        for name, _, witness, frame in _probe_witnesses(probe):
            witness_values[name] = _exact_witness(_in_frame(vec, frame), CODE_QUBITS,
                                                  witness).value
    summary = {
        "calibrated_visibility": v_star,
        "target_fidelity": cfg.target_fidelity,
        "fidelity_at_calibration": _vector_fidelity(encoded["0"], plus),
        "witness_values_at_calibration": witness_values,
        "all_witnesses_negative": all(w < 0 for w in witness_values.values()),
        "fidelity_lower_bound": fidelity_lower_bound(wit_star),
        "resource_fidelity": _vector_fidelity(rho5, vec5),
    }
    return summary, {"sweep": rows}, {}


_RUNNERS = {
    "resource-witness": _run_resource_witness,
    "encode-tomography": _run_encode_tomography,
    "encode-channel": _run_encode_channel,
    "loss-recovery": _run_loss_recovery,
    "syndrome-table": _run_syndrome_table,
    "noise-sweep": _run_noise_sweep,
}


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Run one experiment kind; the bundle is a pure function of the config."""
    summary, tables, figures = _RUNNERS[config.kind](config)
    config_dict = config.to_dict()
    provenance = {
        "kind": config.kind,
        "config": config_dict,
        "config_sha256": _digest(config_dict),
        "seed": config.seed,
        "version": __version__,
        "formats": list(config.formats),
    }
    return ReportBundle(summary, tables, figures, provenance)
