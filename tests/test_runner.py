import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphqec
import oracle
from graphqec import code, kernel, runner, sampling
from graphqec.cli import _KIND_BY_COMMAND, cli_main
from graphqec.code import PROBES
from graphqec.runner import ConfigError, ExperimentConfig, _probe_vectors, run_experiment
from graphqec.sampling import NoiseModel, counts_from_csv_rows, witness_records
from graphqec.witnesses import builtin_witnesses


def cfg(kind, **kw):
    base = {"kind": kind, "trials": 100, "sweep_points": 5}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "frobnicate"})
        assert "kind" in err.value.fields

    def test_unknown_field(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "syndrome-table", "shots": 10})
        assert "shots" in err.value.fields

    def test_bad_probe_and_lost(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "loss-recovery", "lost": 3,
                                        "probes": ["2"]})
        assert set(err.value.fields) == {"lost", "probes"}

    def test_bad_error_spec(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "syndrome-table", "error": "W@9"})
        assert "error" in err.value.fields

    def test_bad_noise(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "syndrome-table",
                                        "noise": {"visibility": 2.0}})
        assert "noise" in err.value.fields

    def test_roundtrip_digest_stable(self):
        a = cfg("syndrome-table", seed=3)
        b = ExperimentConfig.from_dict(a.to_dict())
        assert a.digest() == b.digest()
        pinned = ExperimentConfig.from_dict({
            "kind": "loss-recovery",
            "noise": {"depolarizing": {"1": 0.03, "5": 0.04}, "dephasing": 0.02,
                      "visibility": 0.9},
            "lost": 5, "seed": 2718})
        assert pinned.digest() == \
            "866347311a6a4bd3222f53b91328986241b2d0c72117230fadbb6b6b0cdb3473"


def encoded_vector(probe, noise, byproduct="condition0"):
    return _probe_vectors((probe,), noise, byproduct)[probe]


class TestEncodedState:
    def test_byproduct_modes_agree_for_ideal(self):
        for stage in ("post-resource", "post-encoding"):
            noise = NoiseModel(stage=stage)
            a = encoded_vector("0", noise, "condition0")
            b = encoded_vector("0", noise, "correct")
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_raw_mode_mixes_branches(self):
        vec = encoded_vector("+y", NoiseModel(), "raw")
        assert np.sum(vec ** 2) / 2 ** vec.ndim < 1 - 1e-6  # the purity tr(rho^2)

    def test_stages_agree_for_white_noise(self):
        a = encoded_vector("0", NoiseModel(visibility=0.7, stage="post-resource"))
        b = encoded_vector("0", NoiseModel(visibility=0.7, stage="post-encoding"))
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestExperiments:
    @pytest.mark.parametrize("kind", ["resource-witness", "encode-tomography",
                                      "encode-channel", "loss-recovery",
                                      "syndrome-table", "noise-sweep"])
    def test_deterministic_bundles(self, kind):
        config = cfg(kind, seed=99)
        a, b = run_experiment(config), run_experiment(config)
        assert a.summary_json() == b.summary_json()
        assert set(a.tables) == set(b.tables)
        for name in a.tables:
            assert a.table_csv(name) == b.table_csv(name)
        assert a.figures == b.figures

    def test_syndrome_table_ideal_matches_theory(self):
        bundle = run_experiment(cfg("syndrome-table"))
        assert bundle.summary["all_match"] is True
        assert bundle.summary["patterns_checked"] == 48
        for vals in bundle.summary["no_error_syndromes"].values():
            assert vals == [1.0, 1.0, 1.0]

    def test_syndrome_signs_survive_noise(self):
        # magnitudes shrink with the visibility but every sign persists
        bundle = run_experiment(cfg("syndrome-table", noise={"visibility": 0.7}))
        assert bundle.summary["all_match"] is True
        rows = bundle.tables["syndrome_table"][1:]
        magnitudes = [abs(v) for row in rows for v in row[3:6]]
        assert max(magnitudes) < 1.0
        assert min(magnitudes) > 0.5

    def test_syndrome_table_single_error_restriction(self):
        bundle = run_experiment(cfg("syndrome-table", error="Z@1"))
        rows = bundle.tables["syndrome_table"][1:]
        assert len(rows) == 4  # one probe each
        assert all(r[0] == "Z@1" and r[6:9] == (-1, -1, 1) for r in rows)

    @pytest.mark.parametrize("error, case", [("none", ("X", 1)), ("Y@2", ("Y", 2))])
    def test_syndrome_values_out_of_range_refused_as_records_refuse_them(
            self, monkeypatch, error, case):
        """The table's values are held to the bound a checked
        ``SyndromeRecord`` holds them to, once per run: the first value out of
        range in row order (the first error, then probe order) names the
        error, with the sign that error gives it; 1 + 5e-10 is in range."""
        real = runner._syndromes_of_vector
        wrong = {"0": (0.25, 1 + 5e-10, -0.5), "1": (0.5, -1.25, 2.0)}
        vectors = iter(PROBES)
        monkeypatch.setattr(runner, "_syndromes_of_vector",
                            lambda vec, labels: wrong.get(next(vectors)) or real(vec, labels))
        letter, loc = case
        flips = [code._error_signs(letter)["IXYZ".index(s.letter(loc))]
                 for s in code.syndrome_operators()]
        with pytest.raises(ValueError) as want:
            code.SyndromeRecord(tuple(v * f for v, f in zip(wrong["1"], flips)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            run_experiment(cfg("syndrome-table", error=error))

    def test_identity_error_spec_gives_full_table(self):
        bundle = run_experiment(cfg("syndrome-table", error="I", probes=["+"]))
        assert bundle.summary["patterns_checked"] == 12
        assert bundle.summary["all_match"] is True

    @staticmethod
    def count_kernel_calls(monkeypatch, names) -> dict:
        """Count calls to the named kernel functions from here on."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _real=getattr(kernel, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(kernel, name, counted)
        return calls

    @pytest.mark.parametrize("byproduct", runner.BYPRODUCT_MODES)
    def test_syndrome_table_reads_one_pauli_vector_per_probe(self, monkeypatch, byproduct):
        """The 48 error rows and 4 baselines are read off the 4 probes' Pauli
        vectors, which the encoder builds in the Pauli domain: no dense state
        is turned into a vector, and neither an error nor the byproduct
        correction is applied by a dense conjugation."""
        calls = self.count_kernel_calls(monkeypatch, ("_pauli_vector", "_unitary"))
        noise = NoiseModel(depolarizing=0.05, visibility=0.8)
        bundle = run_experiment(ExperimentConfig("syndrome-table", noise, byproduct=byproduct))
        assert bundle.summary["patterns_checked"] == 48
        assert calls == {"_pauli_vector": 0, "_unitary": 0}

    @pytest.mark.parametrize("byproduct", runner.BYPRODUCT_MODES)
    def test_encode_channel_reads_the_encoded_vectors(self, monkeypatch, byproduct):
        """The logical read-out of each probe is three components of its
        encoded Pauli vector: no dense state is turned into a vector."""
        calls = self.count_kernel_calls(monkeypatch, ("_pauli_vector", "_unitary"))
        noise = NoiseModel(depolarizing=0.05, visibility=0.8)
        run_experiment(ExperimentConfig("encode-channel", noise, byproduct=byproduct))
        assert calls == {"_pauli_vector": 0, "_unitary": 0}

    @pytest.mark.parametrize("kind, vectors", [("resource-witness", 1),
                                               ("encode-tomography", 4), ("noise-sweep", 2)])
    def test_sampled_kinds_read_pauli_vectors(self, monkeypatch, kind, vectors):
        """The resource-reading and sampled kinds build ``vectors`` pure
        references: the ideal resource, or each probe's logical target, and
        the |+_L> of the sweep, each once per process and each from the
        encoding's input map, so no state is turned into a Pauli vector. The
        noisy states, the ancilla projection and the Zbar frame stay in the
        Pauli domain."""
        runner._ideal_vector.cache_clear()
        calls = self.count_kernel_calls(monkeypatch, ("_pauli_vector", "_unitary"))
        noise = NoiseModel(depolarizing=0.05, visibility=0.8)
        for _ in range(2):
            run_experiment(ExperimentConfig(kind, noise, trials=100))
            assert calls == {"_pauli_vector": 0, "_unitary": 0}
            assert runner._ideal_vector.cache_info().misses == vectors

    def test_noise_sweep_encodes_only_witnessed_probes(self, monkeypatch):
        # Pauli-domain encodings of |0> at v = 0 and at v = 1, then one batch
        # of |0>, |+> and |+y> at v*, from their exact Bloch vectors; the
        # |+_L> reference, the ideal encoding of |0>, is built once first
        runner._ideal_vector("0")
        calls = []
        encode = runner._encoded_vectors

        def counted(blochs, *args):
            calls.append([tuple(b) for b in blochs])
            return encode(blochs, *args)

        monkeypatch.setattr(runner, "_encoded_vectors", counted)
        run_experiment(ExperimentConfig.from_dict({"kind": "noise-sweep"}))
        bloch = {"0": (1.0, 0.0, 0.0, 1.0), "+": (1.0, 1.0, 0.0, 0.0), "+y": (1.0, 0.0, 1.0, 0.0)}
        assert calls == [[bloch["0"]], [bloch["0"]], [bloch["0"], bloch["+"], bloch["+y"]]]

    def test_loss_recovery_ideal_is_identity_channel(self):
        for lost in (1, 4):
            bundle = run_experiment(cfg("loss-recovery", lost=lost))
            assert bundle.summary["average_fidelity"] == pytest.approx(1.0, abs=1e-9)
            chi_re = np.array(bundle.summary["chi"]["matrix_re"])
            expected = np.zeros((4, 4))
            expected[0, 0] = 1
            np.testing.assert_allclose(chi_re, expected, atol=1e-8)
            assert bundle.summary["chi"]["process_fidelity"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.filterwarnings("ignore:chi expands the Bloch sphere")
    @pytest.mark.parametrize("trace, radius, message", [
        (1 + 5e-11, 1, None), (1 - 5e-11, 1, None), (1 - 2e-10, 1, "traces"),
        (1 + 2e-10, 1, "traces"), (1, 1 + 1.5e-9, None), (1, 1 + 2.5e-9, "not PSD")])
    def test_loss_recovery_checks_outputs(self, monkeypatch, trace, radius, message):
        """An output whose trace is off 1 by more than NORM_ATOL, or whose
        minimum eigenvalue (b0 - |r|) / 2 is below -EIG_ATOL, raises, as a
        checked DensityOperator would; the ideal outputs are pure, so the
        transfer matrix's identity row sets b0 and its Bloch rows |r|. A
        channel that expands the sphere within the tolerance only warns."""
        ptm = code._recovery_ptm
        scale = np.array([trace, radius, radius, radius])[:, None]
        monkeypatch.setattr(runner, "_recovery_ptm", lambda *args: ptm(*args) * scale)
        config = cfg("loss-recovery", lost=2)
        if message is None:
            run_experiment(config)
        else:
            with pytest.raises(ValueError, match=message):
                run_experiment(config)

    def test_encode_channel_ideal_is_hadamard(self):
        bundle = run_experiment(cfg("encode-channel"))
        assert bundle.summary["chi"]["process_fidelity"] == pytest.approx(1.0, abs=1e-8)
        chi_re = np.array(bundle.summary["chi"]["matrix_re"])
        assert chi_re[1, 1] == pytest.approx(0.5, abs=1e-8)
        assert chi_re[3, 3] == pytest.approx(0.5, abs=1e-8)

    def test_resource_witness_at_calibrated_visibility(self):
        bundle = run_experiment(cfg("resource-witness",
                                    noise={"visibility": 0.7653}, seed=5))
        block = bundle.summary["resource5"]
        assert block["exact"] < 0
        assert block["fidelity_lower_bound"] <= bundle.summary["state_fidelity"] + 1e-9
        assert abs(block["mc_mean"] - block["exact"]) < 0.2

    def test_noise_sweep_calibration(self):
        bundle = run_experiment(cfg("noise-sweep"))
        v_star = bundle.summary["calibrated_visibility"]
        assert abs(bundle.summary["fidelity_at_calibration"] - 0.78) < 1e-6
        assert 0.7 < v_star < 0.85
        assert bundle.summary["all_witnesses_negative"] is True

    @pytest.mark.parametrize("kind", ["resource-witness", "encode-tomography",
                                      "encode-channel", "loss-recovery",
                                      "syndrome-table", "noise-sweep"])
    def test_default_parameters_run_quickly(self, kind):
        import time

        t0 = time.perf_counter()
        run_experiment(ExperimentConfig.from_dict({"kind": kind}))
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.parametrize("kind", runner.KINDS)
    def test_table_cells_are_python_scalars(self, kind):
        # tables are converted at the array; no numpy scalar reaches the CSV writer
        bundle = run_experiment(cfg(kind, noise={"depolarizing": 0.02, "visibility": 0.9}))
        for name, rows in bundle.tables.items():
            for row in rows[1:]:
                for cell in row:
                    assert type(cell) in (str, int, float, bool), (name, row, type(cell))

    def test_table_zeros_carry_no_sign(self):
        """Residue of either sign that rounds to zero is written as 0.0, by
        the array rounding and by the scalar one alike."""
        cells = runner._rounded(np.array([-1e-17, 1e-17, -0.0, -0.25]))
        cells += [runner._round(x) for x in (-1e-17, 1e-17, -0.0, np.float64(-1e-17))]
        assert [math.copysign(1.0, x) for x in cells] == [1, 1, 1, -1, 1, 1, 1, 1]
        assert all(str(x) == "0.0" for i, x in enumerate(cells) if i != 3)

    def test_bundle_write_files(self, tmp_path):
        config = cfg("syndrome-table", formats=["json", "csv", "svg"])
        bundle = run_experiment(config)
        written = bundle.write(tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert "summary.json" in names and "syndrome_table.csv" in names
        again = run_experiment(config)
        rewritten = again.write(tmp_path)
        assert written == rewritten
        assert (tmp_path / "summary.json").read_text() == again.summary_json()

    @pytest.mark.parametrize("out_dir", ["./x", "x/", "x//y", ".", "absolute", "path"])
    def test_bundle_write_returns_pathlib_paths(self, tmp_path, monkeypatch, out_dir):
        """The CLI prints each returned path as ``wrote <path>``; each is the
        path pathlib spells, which drops a ``./`` prefix and doubled or
        trailing slashes (so a plain ``os.path.join`` is wrong for ``"."``)."""
        monkeypatch.chdir(tmp_path)
        out_dir = {"absolute": str(tmp_path / "abs"),
                   "path": pathlib.Path("p") / "q"}.get(out_dir, out_dir)
        bundle = run_experiment(cfg("encode-channel", formats=["json", "csv", "svg"]))
        written = bundle.write(out_dir)
        names = ["summary.json", "bloch_points.csv", "chi.csv", "bloch.svg"]
        assert written == [str(pathlib.Path(out_dir) / name) for name in names]
        assert all(type(p) is str and os.path.isfile(p) for p in written)

    @pytest.mark.parametrize("stale", ["longer", "shorter", "none"])
    def test_bundle_rewrite_equals_fresh_write(self, tmp_path, stale):
        """Whatever a file held before, a rewrite leaves the bytes and mode
        of a write into a fresh directory."""
        bundle = run_experiment(cfg("syndrome-table", formats=["json", "csv", "svg"]))
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        names = [pathlib.Path(p).name for p in bundle.write(fresh)]
        rerun.mkdir()
        for name in names:
            size = (fresh / name).stat().st_size
            if stale == "longer":
                (rerun / name).write_bytes(b"x\n" * size + b"tail")
            elif stale == "shorter":
                (rerun / name).write_bytes(b"y" * (size // 2))
        bundle.write(rerun)
        for name in names:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
            assert (rerun / name).stat().st_mode == (fresh / name).stat().st_mode, name

    def test_bundle_rewrite_keeps_inode(self, tmp_path):
        """A rerun writes into the existing files, as an ``O_TRUNC`` open
        does, so a hard link sees the new bundle."""
        bundle = run_experiment(cfg("syndrome-table"))
        bundle.write(tmp_path)
        inodes = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
        os.link(tmp_path / "summary.json", tmp_path / "linked.json")
        (tmp_path / "summary.json").write_text("stale " * 10_000)
        bundle.write(tmp_path)
        assert {p.name: p.stat().st_ino for p in tmp_path.iterdir()
                if p.name != "linked.json"} == inodes
        assert (tmp_path / "linked.json").read_text() == bundle.summary_json()

    def test_bundle_write_completes_short_writes(self, tmp_path, monkeypatch):
        """``os.write`` may write fewer bytes than asked; the rest still
        reaches the file."""
        bundle = run_experiment(cfg("syndrome-table", formats=["json", "csv", "svg"]))
        fresh = [pathlib.Path(p) for p in bundle.write(tmp_path / "fresh")]
        write = os.write
        monkeypatch.setattr(runner.os, "write", lambda fd, data: write(fd, data[:100]))
        bundle.write(tmp_path / "short")
        for path in fresh:
            assert (tmp_path / "short" / path.name).read_bytes() == path.read_bytes(), path.name


class TestCli:
    def test_syndrome_single_case(self, capsys):
        code = cli_main(["syndrome", "--error", "Z@1", "--probe", "+", "--ideal"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(-1, -1, +1)"

    def test_encode_ideal_probe0(self, capsys):
        code = cli_main(["encode", "--probe", "0", "--ideal", "--trials", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "probe 0: logical fidelity = 1.000000" in out

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_syndrome_single_case_writes_bundle(self, tmp_path, capsys):
        code = cli_main(["syndrome", "--error", "Z@1", "--probe", "+", "--ideal",
                         "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out == "(-1, -1, +1)\n"
        rows = (tmp_path / "syndrome_table.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("Z@1,1,+,")

    def test_analyze_counts_names_oversized_count(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,outcome,count\nZ1 Z2,00,5\nZ1 Z2,11,{2 ** 63}\n")
        assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2"]) == 2
        err = capsys.readouterr().err
        assert "'Z1 Z2'" in err and "too large to convert" not in err

    @pytest.mark.parametrize("witness, block", [("box4", "box4_after_ancilla_z"),
                                                ("resource5", "resource5")])
    def test_analyze_counts_reproduces_witness_bundle(self, tmp_path, capsys, witness, block):
        """analyze-counts on a witness bundle's counts.csv, with the run's
        trials and seed, gives the bundle's estimate and Monte Carlo spread
        bit for bit: box4 reads the two box settings, not the resource's X
        setting, which also covers two of its terms but was taken before
        the ancilla's Z measurement."""
        flags = ["--trials", "100", "--seed", "4"]
        assert cli_main(["witness", "--visibility", "0.8", *flags, "--out", str(tmp_path),
                         "--format", "csv", "--format", "json"]) == 0
        want = json.loads((tmp_path / "summary.json").read_text())["summary"][block]
        capsys.readouterr()
        counts = tmp_path / "counts.csv"
        assert cli_main(["analyze-counts", "--in", str(counts), "--witness", witness,
                         *flags]) == 0
        assert f"value = {want['estimate']:.4f} +/- {want['mc_std']:.4f}" \
            in capsys.readouterr().out
        spec = builtin_witnesses()[witness]
        with open(counts, newline="") as fh:
            records = witness_records(counts_from_csv_rows(csv.reader(fh)), spec)
        assert sampling._witness_estimate(records, spec, 100, 4) \
            == (want["estimate"], want["mc_mean"], want["mc_std"])

    def test_analyze_counts_trials_below_100_exits_1(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("setting,outcome,count\nZ1 Z2,00,5\nZ1 Z2,11,7\n")
        assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2",
                         "--trials", "50"]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_analyze_counts_trials_above_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("setting,outcome,count\nZ1 Z2,00,5\nZ1 Z2,11,7\n")
        assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2",
                         "--trials", "100001"]) == 1
        assert "--trials: must be an integer in [100, 100000], got 100001" \
            in capsys.readouterr().err

    def test_analyze_counts_negative_seed_exits_1(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("setting,outcome,count\nZ1 Z2,00,5\nZ1 Z2,11,7\n")
        assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2",
                         "--seed", "-1"]) == 1
        assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_analyze_counts_witness_not_covered_exits_1(self, tmp_path, capsys):
        """A valid counts file and a valid witness that it does not cover are a
        usage error naming --witness and the uncovered term, not a runtime
        failure."""
        assert cli_main(["witness", "--visibility", "0.8", "--trials", "100", "--seed", "4",
                         "--out", str(tmp_path), "--format", "csv"]) == 0
        capsys.readouterr()
        counts = tmp_path / "counts.csv"
        assert cli_main(["analyze-counts", "--in", str(counts), "--witness", "pair2"]) == 1
        err = capsys.readouterr().err
        assert "--witness: pair2 is not covered by the settings in" in err
        assert str(counts) in err and "no setting covers term Y~1 Z2" in err

    @pytest.mark.parametrize("flags, message", [
        (["--witness", "resource5", "--trials", "50"],
         "error: --trials: must be an integer in [100, 100000], got 50\n"),
        (["--witness", "resource5", "--seed", "-3"],
         "error: --seed: must be a non-negative integer, got -3\n"),
        (["--witness", "pair2"], "error: --witness: pair2 is not covered by the settings in "),
    ], ids=["trials", "seed", "witness"])
    def test_analyze_counts_flag_error_is_a_usage_error(self, tmp_path, capsys, flags, message):
        """analyze-counts reads no config file, so a bad flag is reported as a
        usage error, not as a config error."""
        assert cli_main(["witness", "--visibility", "0.8", "--trials", "100", "--seed", "4",
                         "--out", str(tmp_path), "--format", "csv"]) == 0
        capsys.readouterr()
        assert cli_main(["analyze-counts", "--in", str(tmp_path / "counts.csv"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "config" not in err

    @pytest.mark.parametrize("row, message", [
        ("Z1,0", "line 3: expected 3 fields"),
        ("Z1 Z2,00,abc", "line 3: count 'abc' is not an integer"),
        ("Zx,0,3", "line 3: bad setting token 'Zx'"),
        ("Z1 Z2 Z3 Z4 Z5 Z6 Z7,0000000,1", "line 3: setting 'Z1 Z2 Z3 Z4 Z5 Z6 Z7' has 7 qubits"),
    ])
    def test_analyze_counts_names_malformed_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "counts.csv"
        path.write_text(f"setting,outcome,count\nZ1 Z2,00,5\n{row}\n")
        assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2"]) == 2
        assert message in capsys.readouterr().err

    def test_bad_error_spec_exits_1(self, capsys):
        assert cli_main(["syndrome", "--error", "W@9", "--probe", "+"]) == 1

    def test_no_args_exits_1(self):
        assert cli_main([]) == 1

    def test_missing_config_file_exits_1(self, capsys):
        assert cli_main(["witness", "--config", "/no/such/file.json"]) == 1

    def test_bad_config_field_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lost": 3}))
        assert cli_main(["loss", "--config", str(path)]) == 1
        assert "lost" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data, field", [
        ("witness", {"noise": [1]}, "noise"),
        ("witness", {"noise": {"depolarizing": {"9": 0.3}}}, "noise"),
        ("witness", {"noise": {"dephasing": {"q1": 0.1}}}, "noise"),
        ("witness", {"seed": -3}, "seed"),
        ("loss", {"lost": True}, "lost"),
        ("witness", {"trials": 150.5}, "trials"),
        ("witness", {"counts_per_setting": "500"}, "counts_per_setting"),
        ("witness", {"counts_per_setting": True}, "counts_per_setting"),
        ("sweep", {"sweep_points": 5.5}, "sweep_points"),
        ("sweep", {"target_fidelity": "0.78"}, "target_fidelity"),
        ("witness", {"counts_per_setting": 1e30}, "counts_per_setting"),
        ("witness", {"counts_per_setting": float("inf")}, "counts_per_setting"),
        ("syndrome", {"error": "Z@3"}, "error"),
        ("syndrome", {"error": 5}, "error"),
        ("witness", {"out_dir": 5}, "out_dir"),
        ("sweep", {"sweep_points": 100001}, "sweep_points"),
        ("witness", {"trials": 100001}, "trials"),
    ])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, command, data, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "loss-recovery", **data})
        assert set(err.value.fields) == {field}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli_main([command, "--config", str(path)]) == 1
        assert f"{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, field", [
        (["witness", "--counts", "-1"], "--counts", "counts_per_setting"),
        (["witness", "--trials", "5"], "--trials", "trials"),
        (["witness", "--seed", "-1"], "--seed", "seed"),
        (["channel", "--visibility", "2"], "--visibility", "noise"),
        (["loss", "--lost", "3"], "--lost", "lost"),
        (["loss", "--lost", "0"], "--lost", "lost"),
        (["syndrome", "--error", "Z@3"], "--error", "error"),
    ])
    def test_bad_flag_value_names_flag_and_field(self, capsys, argv, flag, field):
        """A value a flag wrote into the config is reported under the flag,
        with the field it sets in parentheses."""
        assert cli_main(argv) == 1
        assert f"{flag} ({field}): " in capsys.readouterr().err

    def test_bad_config_noise_beside_visibility_flag_names_only_the_field(self, tmp_path,
                                                                          capsys):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"noise": {"depolarizing": 2}}))
        assert cli_main(["channel", "--config", str(path), "--visibility", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "noise: depolarizing" in err and "--visibility" not in err

    @pytest.mark.parametrize("data, field", [
        ({"probes": 5}, "probes"),
        ({"formats": 5}, "formats"),
        ({"formats": None}, "formats"),
    ])
    def test_non_list_config_field_exits_1(self, tmp_path, capsys, data, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"kind": "encode-tomography", **data})
        assert set(err.value.fields) == {field}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli_main(["encode", "--config", str(path)]) == 1
        assert f"{field}: must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["witness", "--config", "{dir}"], "--config"),
        (["witness", "--config", "{dir}/missing.json"], "--config"),
        (["witness", "--config", "{list_json}"], "--config"),
        (["witness", "--config", "{not_json}"], "--config"),
        (["analyze-counts", "--in", "{dir}", "--witness", "pair2"], "--in"),
        (["analyze-counts", "--in", "{dir}/missing.csv", "--witness", "pair2"], "--in"),
        (["build-resource", "--graph", "{dir}"], "--graph"),
        (["syndrome", "--ideal", "--out", "{file}"], "--out"),
        (["syndrome", "--ideal", "--out", "{file}/sub"], "--out"),
        (["syndrome", "--config", "{out_dir_json}"], "out_dir"),
    ], ids=["config-dir", "config-missing", "config-list", "config-not-json", "in-dir",
            "in-missing", "graph-dir", "out-file", "out-under-file", "out_dir-file"])
    def test_path_that_cannot_be_opened_exits_1(self, tmp_path, capsys, argv, flag):
        paths = {name: tmp_path / name for name in
                 ("dir", "list_json", "not_json", "file", "out_dir_json")}
        paths["dir"].mkdir()
        paths["list_json"].write_text("[1]")
        paths["not_json"].write_text("{bad")
        paths["file"].write_text("")
        paths["out_dir_json"].write_text(json.dumps({"out_dir": str(paths["file"])}))
        assert cli_main([a.format(**paths) for a in argv]) == 1
        assert f"{flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True], ids=["--out", "out_dir"])
    def test_unwritable_bundle_file_exits_1(self, tmp_path, capsys, via_config):
        """A directory in the way of a bundle file is a usage error naming
        the flag or field that chose the directory, not a runtime error."""
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        if via_config:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"out_dir": str(out)}))
            argv, flag = ["--config", str(path)], "out_dir"
        else:
            argv, flag = ["--out", str(out)], "--out"
        assert cli_main(["syndrome", "--error", "Z@1", *argv]) == 1
        err = capsys.readouterr().err
        assert f"{flag}: cannot write " in err and "summary.json" in err

    @pytest.mark.parametrize("literal, message", [
        ({"vertices": [], "edges": []}, "no vertices"),
        ({"vertices": list(range(1, 17)), "edges": []}, "graph has 16 vertices, max 6"),
        ({"vertices": [1.5], "edges": []}, "vertex 1.5 is not an integer"),
        ({"vertices": [True, 2], "edges": []}, "vertex True is not an integer"),
    ])
    def test_bad_graph_literal_exits_1(self, tmp_path, capsys, literal, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(literal))
        assert cli_main(["build-resource", "--graph", str(path)]) == 1
        err = capsys.readouterr().err
        assert "graph: " in err and message in err

    def test_bad_graph_literal_is_a_usage_error(self, tmp_path, capsys):
        """build-resource reads no config file, so a bad graph literal is a
        usage error naming --graph, as analyze-counts reports its flags."""
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 7]]}))
        assert cli_main(["build-resource", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == ("error: --graph: bad graph literal: edge [1, 7] "
                                           "references unknown vertices\n")

    def test_build_resource_help_says_graph_is_a_file(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["build-resource", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--graph FILE path of a JSON file holding a graph literal {vertices, edges}" in text

    def test_build_resource_selfcheck(self, capsys):
        assert cli_main(["build-resource"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overlap_graph_state"] > 1 - 1e-9
        assert report["overlap_explicit_expansion"] > 1 - 1e-9

    def test_witness_writes_bundle(self, tmp_path, capsys):
        code = cli_main(["witness", "--ideal", "--trials", "100",
                         "--seed", "4", "--out", str(tmp_path),
                         "--format", "json", "--format", "csv"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["summary"]["resource5"]["exact"] == pytest.approx(-1.0, abs=1e-9)
        assert (tmp_path / "counts.csv").exists()

    def test_analyze_counts_roundtrip(self, tmp_path, capsys):
        code = cli_main(["witness", "--visibility", "0.8", "--trials", "100",
                         "--seed", "4", "--counts", "5000",
                         "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        capsys.readouterr()
        counts_csv = tmp_path / "counts.csv"
        code = cli_main(["analyze-counts", "--in", str(counts_csv),
                         "--witness", "resource5", "--trials", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "witness resource5: value =" in out

    def test_analyze_counts_resamples_only_the_witness_settings(self, tmp_path, capsys):
        assert cli_main(["witness", "--visibility", "0.8", "--trials", "100", "--seed", "4",
                         "--counts", "5000", "--out", str(tmp_path), "--format", "csv"]) == 0
        counts_csv = tmp_path / "counts.csv"
        header, *rows = counts_csv.read_text().splitlines()
        padded = tmp_path / "padded.csv"
        extra = [f"Z1 X2 Y3 Z4 X5 Y6,{i:06b},{i + 1}" for i in range(64)]
        padded.write_text("\n".join([header, *extra, *rows]) + "\n")
        capsys.readouterr()
        outputs = []
        for path in (counts_csv, padded):
            assert cli_main(["analyze-counts", "--in", str(path), "--witness", "resource5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_analyze_counts_reads_every_spacing_of_a_label(self, tmp_path, capsys):
        single, double = tmp_path / "single.csv", tmp_path / "double.csv"
        rows = "setting,outcome,count\nY1 Z2,00,5\nY1{}Z2,01,7\nX1 X2,00,6\nX1 X2,01,2\n"
        single.write_text(rows.format(" "))
        double.write_text(rows.format("  "))
        outputs = []
        for path in (single, double):
            assert cli_main(["analyze-counts", "--in", str(path), "--witness", "pair2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"visibility": 0.9}, "seed": 1,
                                    "trials": 100}))
        code = cli_main(["syndrome", "--config", str(path), "--seed", "2",
                         "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["provenance"]["seed"] == 2
        assert summary["provenance"]["config"]["noise"]["visibility"] == 0.9


# One wrong value of each kind the config file can carry: a string, a bool,
# a list, null, NaN, a negative number or a nested object. The strings avoid
# "/" and "." so that an accepted ``out_dir`` stays inside the working
# directory.
WRONG_VALUES = st.one_of(
    st.text(alphabet="ab0@+-Z\0 ", max_size=4), st.booleans(),
    st.lists(st.integers(-2, 2), max_size=2), st.none(), st.just(math.nan),
    st.integers(max_value=-1), st.floats(max_value=-1e-3, allow_infinity=False),
    st.dictionaries(st.sampled_from(["a", "1", "q2"]),
                    st.one_of(st.integers(-1, 1), st.text(max_size=2)), max_size=2))

# The command sets ``kind``, so a config file's ``kind`` never reaches the runner.
CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "kind"]
NOISE_FIELDS = [f.name for f in dataclasses.fields(NoiseModel)]


@settings(deadline=None, max_examples=150)
@given(command=st.sampled_from(sorted(_KIND_BY_COMMAND)),
       path=st.one_of(st.tuples(st.sampled_from(CONFIG_FIELDS)),
                      st.tuples(st.just("noise"), st.sampled_from(NOISE_FIELDS))),
       value=WRONG_VALUES,
       flags=st.sampled_from([[], ["--visibility", "0.9"]]))
def test_wrong_config_value_exits_0_or_names_the_field(command, path, value, flags):
    """Any wrong-typed or out-of-range value of one field of a valid config
    runs (exit 0) or exits 1 naming the field, and the noise sub-field when
    the value sits in ``noise``; it never reaches a runtime error (exit 2).
    The same holds when ``--visibility`` sets a field inside ``noise``."""
    data = {"trials": 100, "sweep_points": 3, "counts_per_setting": 500,
            "noise": {"depolarizing": 0.02, "visibility": 0.9}}
    (data["noise"] if len(path) == 2 else data)[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            pathlib.Path("cfg.json").write_text(json.dumps(data))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_main([command, "--config", "cfg.json", *flags])
        finally:
            os.chdir(cwd)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert all(key in err.getvalue() for key in path), err.getvalue()


# Random argv values of each experiment flag, valid and not: numbers in and
# out of range, NaN and infinities, words of the flag's own vocabulary, and
# short junk strings (which may start with "-" and so read as a flag).
JUNK = st.text(alphabet="ab0@+-Z.e ", max_size=4)
FLAG_VALUES = {
    "--visibility": st.one_of(st.floats(-0.5, 1.5).map(repr), st.sampled_from(
        ["nan", "inf", "-inf", "1e-300", "0", "1"]), JUNK),
    "--trials": st.one_of(st.integers(-10, 400).map(str), st.just("100001"), JUNK),
    "--seed": st.one_of(st.integers(-5, 2 ** 70).map(str), JUNK),
    "--lost": st.one_of(st.integers(-1, 7).map(str), JUNK),
    "--error": st.one_of(st.sampled_from(["none", "Z@1", "X@4", "Y@5", "Z@3", "Q@1", "Z@9",
                                          "Z@1,X@2", ""]), JUNK),
    "--probe": st.one_of(st.sampled_from(list(PROBES)), JUNK),
    "--format": st.one_of(st.sampled_from(runner.FORMATS), JUNK),
}
FLAG_COMMANDS = {"--lost": ["loss"], "--error": ["syndrome"], "--probe": ["encode", "syndrome"]}


@settings(deadline=None, max_examples=120)
@given(data=st.data(), flag=st.sampled_from(sorted(FLAG_VALUES)))
def test_random_flag_value_exits_0_or_names_the_flag(data, flag):
    """Any value of one experiment flag, on a command that takes it, runs
    (exit 0) or exits 1 with the flag named on stderr; it never reaches a
    runtime error (exit 2). ``--counts`` is left out: a tiny count can
    empty a histogram, which is still a runtime error (see the xfail
    below)."""
    command = data.draw(st.sampled_from(FLAG_COMMANDS.get(flag, sorted(_KIND_BY_COMMAND))))
    value = data.draw(FLAG_VALUES[flag])
    argv = [command, flag, value, "--trials", "100"] if flag != "--trials" \
        else [command, flag, value]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert flag in err.getvalue(), err.getvalue()


@pytest.mark.xfail(strict=True, reason="an empty histogram is a runtime error (exit 2), "
                                       "not data in the summary")
@pytest.mark.parametrize("argv, config", [
    (["encode", "--counts", "5", "--visibility", "0"], None),
    (["witness"], {"counts_per_setting": 0.001}),
], ids=["encode-counts-5-visibility-0", "witness-counts-0.001"])
def test_empty_histogram_config_exits_0(tmp_path, argv, config):
    """A valid config whose counts leave a histogram empty runs and exits 0."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, err.getvalue()


def test_noise_keys_follow_the_label_rule():
    """A per-qubit noise key that is not an integral label is a config error
    naming ``noise``; equal maps keyed by ints, numpy ints or decimal strings
    give one config digest."""
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"kind": "resource-witness",
                                    "noise": {"depolarizing": {4.7: 0.3}}})
    assert set(err.value.fields) == {"noise"} and "4.7" in err.value.fields["noise"]
    digests = {ExperimentConfig("resource-witness", NoiseModel(depolarizing=keys)).digest()
               for keys in ({"1": 0.03, "5": 0.04}, {1: 0.03, 5: 0.04},
                            {np.int64(1): 0.03, np.int64(5): 0.04})}
    assert len(digests) == 1


IDEAL_KEYS = ["resource", "0", "1", "+", "-", "+y", "-y"]


def closed_form_ideal_vector(key) -> np.ndarray:
    """The package's ideal Pauli vector of ``key``: the resource, or the
    ideal encoding of the logical state's Hadamard preimage (z, -y, x)."""
    if key == "resource":
        return runner._ideal_vector("resource")
    x, y, z = code.CARDINAL_BLOCH[key]
    return code._encoded_vectors([(1.0, z, -y, x)], NoiseModel(), "condition0")[0]


@pytest.mark.parametrize("key", IDEAL_KEYS)
def test_ideal_vector_matches_stabilizer_closed_form(key):
    """Each ideal Pauli vector is +/-1 on its stabilizer group (32 words for
    the five-qubit resource, 16 for a logical state) and 0 elsewhere,
    exactly, and so is each probe's target the runner reads."""
    want = oracle.ideal_vector(key)
    assert np.count_nonzero(want) == (32 if key == "resource" else 16)
    assert np.array_equal(closed_form_ideal_vector(key), want)
    for probe in [p for p, target in code.PROBE_TARGETS.items() if target == key]:
        assert np.array_equal(runner._ideal_vector(probe), want)


@pytest.mark.parametrize("key", IDEAL_KEYS)
def test_ideal_vector_matches_amplitudes(key):
    """The closed-form vectors equal the ones read off the rotated resource
    state and the Bell-pair logical basis to their rounding residue."""
    np.testing.assert_allclose(closed_form_ideal_vector(key), oracle.amplitude_ideal_vector(key),
                               rtol=0, atol=2e-15)


AMPLITUDE_ROUTE = (("kernel", "_pauli_vector"), ("kernel", "_unitary"),
                   ("graphs", "build_resource"), ("code", "logical_basis_states"),
                   ("code", "_encoding_branches"))


def test_no_kind_reads_amplitudes(monkeypatch):
    """Every kind, noisy and ideal, with its first-use builds of the input
    map and the ideal references, runs without a state vector: none of the
    functions that build amplitudes is called, wherever the package imported it from."""
    modules = [m for name, m in vars(graphqec).items()
               if type(m) is type(graphqec) and m.__name__.startswith("graphqec.")]
    for home, name in AMPLITUDE_ROUTE:
        real = getattr(getattr(graphqec, home), name)

        def refused(*args, _name=name):
            raise AssertionError(f"{_name} was called")
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, refused)
    runner._ideal_vector.cache_clear()
    code._input_map.cache_clear()
    for kind in runner.KINDS:
        for visibility in (1.0, 0.8):
            run_experiment(cfg(kind, noise={"visibility": visibility}))


def summary_floats(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from summary_floats(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from summary_floats(value)
    elif isinstance(obj, float):
        yield obj


@pytest.mark.parametrize("kind", runner.KINDS)
def test_ideal_summary_holds_no_residue(kind):
    """At visibility 1 (the CLI's ``--ideal``) no summary float lies within
    1e-9 of 0, +-0.5 or +-1 without being exactly that value: every ideal
    reference is exact, so what is exact in closed form is written exact."""
    summary = run_experiment(ExperimentConfig.from_dict(
        {"kind": kind, "noise": {"visibility": 1.0}})).summary
    residue = [x for x in summary_floats(summary)
               if any(0 < abs(x - v) <= 1e-9 for v in (0.0, 0.5, -0.5, 1.0, -1.0))]
    assert residue == []


def test_import_adds_no_third_party_module():
    """Importing the package and its CLI loads nothing outside the standard
    library, numpy and graphqec itself: numpy stays the only runtime
    dependency, and nothing else joins the import time of a one-shot call."""
    script = ("import sys; before = set(sys.modules); import graphqec, graphqec.cli; "
              "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "graphqec" in out and "numpy" in out
    assert set(out) - set(sys.stdlib_module_names) <= {"numpy", "graphqec"}, out


def test_numpy_random_is_imported_only_by_a_sampled_run():
    """Importing the package and its CLI, and a loss-recovery run, which
    draws nothing, leave ``numpy.random`` unimported; the generators of a
    sampled run import it on first use."""
    script = ("import sys, graphqec, graphqec.cli; "
              "c = graphqec.ExperimentConfig; seen = ['numpy.random' in sys.modules]; "
              "graphqec.run_experiment(c('loss-recovery', noise=graphqec.NoiseModel(0.05))); "
              "seen.append('numpy.random' in sys.modules); "
              "graphqec.run_experiment(c('resource-witness', trials=100)); "
              "print(*seen, 'numpy.random' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False", "False", "True"]


def test_helper_thread_only_for_runs_with_two_or_more_witness_draws():
    """Importing the package starts no thread and imports no ``queue``, and
    the one draw of ``analyze-counts``'s estimate starts none. Sampled runs
    share their witness draws with one helper thread: after 30 of them the
    process holds one thread more than at the start, not more."""
    script = (
        "import sys, threading, numpy\n"
        "before, count = set(sys.modules), threading.active_count()\n"
        "import graphqec, graphqec.cli\n"
        "from graphqec import sampling, witnesses\n"
        "seen = [threading.active_count() - count, 'queue' in set(sys.modules) - before]\n"
        "spec = witnesses.pair_witness((1, 2))\n"
        "records = [sampling.CountRecord(tuple(sorted(s.items())), [5, 1, 2, 7])\n"
        "           for s in sampling.witness_settings(spec)]\n"
        "sampling._witness_estimate(records, spec, 100, 1)\n"
        "seen.append(threading.active_count() - count)\n"
        "for i in range(30):\n"
        "    kind = ('resource-witness', 'encode-tomography')[i % 2]\n"
        "    graphqec.run_experiment(graphqec.ExperimentConfig(kind, trials=100, seed=i))\n"
        "seen.append(threading.active_count() - count)\n"
        "print(*seen)\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out == ["0", "False", "0", "1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork is tested on Linux")
def test_forked_child_starts_its_own_helper_and_writes_the_same_bundle(tmp_path):
    """A child forked after a sampled run started the parent's helper thread
    starts a helper of its own and writes the parent's encode-tomography
    bundle byte for byte."""
    config = cfg("encode-tomography", noise={"visibility": 0.8})
    run_experiment(config).write(tmp_path / "parent")
    assert os.getpid() in sampling._HELPERS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # 3.12+: fork with a live thread
        pid = os.fork()
    if pid == 0:  # the child: exit at once, whatever happens
        status = 1
        try:
            run_experiment(config).write(tmp_path / "child")
            status = 0 if os.getpid() in sampling._HELPERS else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 120
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish in 120 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    names = sorted(p.name for p in (tmp_path / "parent").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "child").iterdir())
    for name in names:
        assert (tmp_path / "child" / name).read_bytes() \
            == (tmp_path / "parent" / name).read_bytes(), name
