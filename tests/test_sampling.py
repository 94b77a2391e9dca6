import os
import re
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from graphqec import kernel, sampling
from graphqec.code import PROBES, encode, logical_basis_states
from graphqec.graphs import build_resource
from graphqec.kernel import PureState
from graphqec.sampling import (COUNTS_CSV_HEADER, MAX_TRIALS, CountRecord, NoiseModel,
                               apply_noise, counts_from_csv_rows, counts_to_csv_rows,
                               estimate_expectation, monte_carlo_uncertainty,
                               outcome_probabilities, sample_setting_counts,
                               _mc_state, _witness_estimate, _witness_estimates,
                               witness_records, witness_settings,
                               witness_value_from_counts)
from graphqec.tomography import state_fidelity
from graphqec.witnesses import (box_witness, evaluate_witness, fidelity_lower_bound,
                                ghz_witness, pair_witness, resource_witness)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="depolarizing"):
            NoiseModel(depolarizing=1.5)
        with pytest.raises(ValueError, match="dephasing"):
            NoiseModel(dephasing={1: -0.2})
        with pytest.raises(ValueError, match="visibility"):
            NoiseModel(visibility=-0.1)
        with pytest.raises(ValueError, match="stage"):
            NoiseModel(stage="mid-circuit")

    @pytest.mark.parametrize("keys, message", [
        ({1.5: 0.1}, "depolarizing qubit 1.5 is not an integer"),
        ({True: 0.2}, "depolarizing qubit True is not an integer"),
        ({1.5: 0.1, True: 0.2}, "depolarizing qubit 1.5 is not an integer"),
        ({"1": 0.1, 1: 0.2}, "depolarizing qubit 1 is given twice"),
        ({1: 0.1, "01": 0.2}, "depolarizing qubit 1 is given twice"),
        ({"q1": 0.1}, "depolarizing qubit 'q1' is not an integer"),
        ({" 1": 0.1}, "depolarizing qubit ' 1' is not an integer"),
        ({"-1": 0.1}, "depolarizing qubit '-1' is not an integer"),
        ({None: 0.1}, "depolarizing qubit None is not an integer"),
    ])
    def test_per_qubit_keys_follow_the_label_rule(self, keys, message):
        """A per-qubit key is read as the kernel reads a qubit label, or as
        a string of decimal digits; two keys that name one qubit are refused
        rather than merged."""
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            NoiseModel(depolarizing=keys)
        with pytest.raises(ValueError, match=re.escape(message.replace("depolarizing", "dephasing"))):
            NoiseModel(dephasing=keys)

    def test_per_qubit_keys_accepted(self):
        model = NoiseModel(depolarizing={"1": 0.1, 5: 0.2, np.int64(4): 0.3},
                           dephasing={"02": 0.05})
        assert model.depolarizing == {1: 0.1, 5: 0.2, 4: 0.3}
        assert all(type(q) is int for q in model.depolarizing)
        assert model.dephasing == {2: 0.05}

    def test_ideal_model_is_identity(self):
        state = logical_basis_states()["+"]
        rho = apply_noise(state, NoiseModel())
        np.testing.assert_allclose(rho.matrix, state.density().matrix, atol=1e-12)

    def test_zero_visibility_is_maximally_mixed(self):
        rho = apply_noise(logical_basis_states()["+"], NoiseModel(visibility=0.0))
        np.testing.assert_allclose(rho.matrix, np.eye(16) / 16, atol=1e-12)

    def test_depolarizing_z_expectation(self):
        for p in (0.0, 0.3, 1.0):
            rho = apply_noise(PureState.single(1, kernel.KET0), NoiseModel(depolarizing=p))
            z = kernel.expectation(rho, kernel.Observable((1,), kernel.Z))
            assert abs(z - (1 - p)) < 1e-12

    def test_dephasing_x_expectation(self):
        for q in (0.0, 0.25, 0.5):
            rho = apply_noise(PureState.single(1, kernel.PLUS), NoiseModel(dephasing=q))
            x = kernel.expectation(rho, kernel.Observable((1,), kernel.X))
            assert abs(x - (1 - 2 * q)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_maps_are_cptp(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = PureState((1, 2, 4, 5), v / np.linalg.norm(v))
        model = NoiseModel(depolarizing={1: 0.3, 4: 0.9},
                           dephasing={2: 0.4, 5: 0.7},
                           visibility=0.6)
        rho = apply_noise(state, model)
        assert abs(np.trace(rho.matrix) - 1) < 1e-10
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-9


class TestSampling:
    def test_deterministic_per_seed(self):
        state = build_resource()
        bases = {q: "X" for q in state.labels}
        a = sample_setting_counts(state, bases, 500, seed=7, stream=1)
        b = sample_setting_counts(state, bases, 500, seed=7, stream=1)
        assert a.counts == b.counts
        c = sample_setting_counts(state, bases, 500, seed=7, stream=2)
        assert c.counts != a.counts

    def test_zero_state_in_z_all_counts_on_zero(self):
        state = PureState((1, 2), np.kron(kernel.KET0, kernel.KET0))
        rec = sample_setting_counts(state, {1: "Z", 2: "Z"}, 200, seed=1)
        assert set(rec.counts) == {"00"}

    def test_large_n_frequencies_converge(self):
        state = logical_basis_states()["+"]
        bases = {1: "Y", 2: "Z", 4: "Z", 5: "Y"}  # the S1 measurement setting
        exact = outcome_probabilities(state, bases)
        rec = sample_setting_counts(state, bases, 1_000_000, seed=3)
        for bits in (format(i, "04b") for i in range(16)):
            assert abs(rec.counts.get(bits, 0) / rec.total - exact[int(bits, 2)]) < 0.005

    def test_requires_positive_n(self):
        with pytest.raises(ValueError, match="positive"):
            sample_setting_counts(logical_basis_states()["+"],
                                  {1: "Z", 2: "Z", 4: "Z", 5: "Z"}, 0, seed=1)

    @pytest.mark.parametrize("expected_n", [float("nan"), float("inf"), 1e30])
    def test_rejects_non_finite_or_huge_n(self, expected_n):
        with pytest.raises(ValueError, match="expected_n"):
            sample_setting_counts(logical_basis_states()["+"],
                                  {1: "Z", 2: "Z", 4: "Z", 5: "Z"}, expected_n, seed=1)

    @pytest.mark.parametrize("letter", ["W", "XY", "", "z"])
    @pytest.mark.parametrize("read", [
        lambda state, bases: sample_setting_counts(state, bases, 100, seed=1),
        outcome_probabilities], ids=["sample", "probabilities"])
    def test_bad_basis_letter_names_the_setting(self, read, letter):
        """A basis that is not X, Y or Z raises ``ValueError`` naming it and
        its setting, not ``KeyError`` from the setting's gather."""
        bases = {1: letter, 2: "Z", 4: "Z", 5: "Z"}
        label = f"{letter}1 Z2 Z4 Z5"
        with pytest.raises(ValueError, match=f"bad basis '{letter}' for qubit 1 in setting "
                                             f"'{label}'"):
            read(logical_basis_states()["+"], bases)

    @pytest.mark.parametrize("read", [
        lambda state, bases: sample_setting_counts(state, bases, 100, seed=1),
        outcome_probabilities], ids=["sample", "probabilities"])
    def test_basis_outside_the_register_refused(self, read):
        """A basis for a qubit the state does not hold is refused, not
        dropped; so is a register qubit without a basis."""
        state = logical_basis_states()["+"]
        with pytest.raises(ValueError, match=r"measures qubits \[7\] outside the register"):
            read(state, {1: "Z", 2: "Z", 4: "Z", 5: "Z", 7: "Z"})
        with pytest.raises(ValueError, match="no basis given for qubit 5"):
            read(state, {1: "Z", 2: "Z", 4: "Z"})


class TestEstimator:
    def test_even_parity_gives_plus_one(self):
        rec = CountRecord.from_counts(((1, "Z"), (2, "Z")), {"00": 7, "11": 3})
        assert estimate_expectation(rec, (1, 2)) == 1.0

    def test_balanced_gives_zero(self):
        rec = CountRecord.from_counts(((1, "Z"),), {"0": 5, "1": 5})
        assert estimate_expectation(rec, (1,)) == 0.0

    def test_s1_on_logical_plus(self):
        state = logical_basis_states()["+"]
        bases = {1: "Y", 2: "Z", 4: "Z", 5: "Y"}
        rec = sample_setting_counts(state, bases, 10_000, seed=11)
        assert abs(estimate_expectation(rec, (1, 2, 4, 5)) - 1.0) < 0.05

    def test_support_is_read_once(self):
        """A support given as an iterator reads like the same tuple, on one
        histogram and on a trial batch."""
        rec = CountRecord.from_counts(((1, "Z"), (2, "Z")), {"00": 1, "10": 9})
        batch = CountRecord(rec.setting, np.stack([rec.dense, rec.dense[::-1]]))
        for make in (tuple, list, iter, lambda s: (q for q in s)):
            assert estimate_expectation(rec, make([1])) == -0.8
            assert estimate_expectation(batch, make([2])).tolist() == [1.0, -1.0]

    def test_batch_of_no_trials_gives_no_estimates(self):
        rec = CountRecord(((1, "Z"),), np.zeros((0, 2), dtype=np.int64))
        assert estimate_expectation(rec, (1,)).shape == (0,)

    def test_empty_histogram_rejected(self):
        rec = CountRecord.from_counts(((1, "Z"),), {})
        with pytest.raises(ValueError, match="empty"):
            estimate_expectation(rec, (1,))


class TestWitnessFromCounts:
    def test_builtin_witnesses_need_two_settings(self):
        for spec in (resource_witness(), box_witness(), ghz_witness()):
            assert len(witness_settings(spec)) == 2

    def test_resource_settings_match_published_bases(self):
        settings = witness_settings(resource_witness())
        assert {q: "X" for q in range(1, 6)} in settings
        assert {1: "Z", 2: "Y", 3: "Y", 4: "Y", 5: "Z"} in settings

    def test_sampled_value_near_exact(self):
        state = build_resource()
        spec = resource_witness()
        records = [sample_setting_counts(state, s, 200_000, seed=5, stream=i)
                   for i, s in enumerate(witness_settings(spec))]
        value = witness_value_from_counts(records, spec)
        assert abs(value - (-1.0)) < 0.02

    def test_witness_records_are_the_ones_read(self):
        spec = resource_witness()
        records = [sample_setting_counts(build_resource(), s, 300, seed=2, stream=i)
                   for i, s in enumerate(witness_settings(spec))]
        extra = CountRecord.from_counts(((1, "Z"),), {"0": 3})
        mixed = [extra, records[1], extra, records[0], records[1]]
        used = witness_records(mixed, spec)
        assert len(used) == 2 and used[0] is records[1] and used[1] is records[0]
        assert witness_value_from_counts(used, spec) == witness_value_from_counts(mixed, spec)

    def test_missing_setting_rejected(self):
        with pytest.raises(ValueError, match="no setting covers"):
            witness_value_from_counts([], resource_witness())

    def test_terms_prefer_settings_inside_the_witness(self):
        """A resource setting listed first also measures the box witness's
        X4 X5 and X1 X2 terms, but on qubit 3, outside the box: the box
        settings are read instead, and the resource setting is not."""
        spec = box_witness()
        wide = CountRecord(tuple((q, "X") for q in range(1, 6)), np.arange(32) % 7)
        box = [CountRecord(tuple(sorted(s.items())), 3 + np.arange(16) % 5)
               for s in witness_settings(spec)]
        assert witness_records([wide, *box], spec) == box
        assert witness_value_from_counts([wide, *box], spec) \
            == witness_value_from_counts(box, spec) \
            == oracle.witness_value_from_counts([wide, *box], spec)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_empty_histogram_rejected(self, shape):
        """One empty histogram among the records read, or one empty trial in
        a batch, raises what the per-term estimator raises."""
        spec = box_witness()
        records = [CountRecord(tuple(sorted(s.items())), np.full(shape + (16,), 2))
                   for s in witness_settings(spec)]
        records[1].dense[(0,) * len(shape)] = 0
        for evaluate in (witness_value_from_counts, oracle.witness_value_from_counts):
            with pytest.raises(ValueError, match="^empty histogram$"):
                evaluate(records, spec)
        if not shape:
            with pytest.raises(ValueError, match="^empty histogram$"):
                _witness_estimate(records, spec, 100, seed=1)


class TestMonteCarlo:
    def test_constant_statistic_has_zero_std(self):
        rec = CountRecord.from_counts(((1, "Z"),), {"0": 50, "1": 50})
        mean, std = monte_carlo_uncertainty(lambda rs: 3.25, [rec], 100, seed=1)
        assert mean == 3.25 and std == 0.0

    def test_deterministic_per_seed(self):
        rec = CountRecord.from_counts(((1, "Z"),), {"0": 80, "1": 20})
        stat = lambda rs: estimate_expectation(rs[0], (1,))
        assert monte_carlo_uncertainty(stat, [rec], 150, seed=9) \
            == monte_carlo_uncertainty(stat, [rec], 150, seed=9)

    def test_trials_floor(self):
        rec = CountRecord.from_counts(((1, "Z"),), {"0": 80})
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_uncertainty(lambda rs: 0.0, [rec], 10, seed=1)

    def test_trials_cap(self):
        rec = CountRecord.from_counts(((1, "Z"),), {"0": 80})
        with pytest.raises(ValueError, match=f"trials must be in \\[100, {MAX_TRIALS}\\]"):
            monte_carlo_uncertainty(lambda rs: 0.0, [rec], MAX_TRIALS + 1, seed=1)

    def test_resampled_total_above_cap_rejected(self):
        """A recorded total at 2^53 resamples above it in some trial: the
        witness helper refuses it as the trial-batched records do, naming
        the setting."""
        spec = pair_witness((1, 2))
        records = [CountRecord(tuple(sorted(s.items())), [2 ** 53 - 9, 3, 3, 3])
                   for s in witness_settings(spec)]
        stat = lambda rs: witness_value_from_counts(rs, spec)
        for estimate in (lambda: monte_carlo_uncertainty(stat, records, 100, seed=3),
                         lambda: _witness_estimate(records, spec, 100, seed=3)):
            with pytest.raises(ValueError, match="^histogram total above 2\\^53 in setting "
                                                 "'Y1 Z2'$"):
                estimate()

    @pytest.mark.parametrize("empty", [0, 1])
    def test_read_record_without_nonzero_cell_is_empty_in_every_trial(self, empty):
        """A read record with no nonzero cell, first or last among the cells,
        has no column in the nonzero-cell draw: the witness helper, the
        trial-batched records and the per-trial oracle all refuse it as an
        empty histogram. An unread record without a nonzero cell after them
        changes no value."""
        spec = pair_witness((1, 2))
        records = [CountRecord(tuple(sorted(s.items())), [50, 0, 20, 10])
                   for s in witness_settings(spec)]
        unread = CountRecord(((3, "Z"),), [0, 0])
        stat = lambda rs: witness_value_from_counts(rs, spec)
        scalar = lambda rs: oracle.witness_value_from_counts(rs, spec)
        assert monte_carlo_uncertainty(stat, records + [unread], 100, seed=3) \
            == oracle.monte_carlo_uncertainty(scalar, records + [unread], 100, seed=3) \
            == _witness_estimate(records + [unread], spec, 100, seed=3)[1:]
        records[empty] = CountRecord(records[empty].setting, [0, 0, 0, 0])
        for estimate in (lambda: monte_carlo_uncertainty(stat, records, 100, seed=3),
                         lambda: oracle.monte_carlo_uncertainty(scalar, records, 100, seed=3),
                         lambda: _witness_estimate(records, spec, 100, seed=3)):
            with pytest.raises(ValueError, match="^empty histogram$"):
                estimate()

    @pytest.mark.parametrize("over", [(1,), (0, 1)])
    def test_sparse_record_resampled_above_cap_names_its_setting(self, over):
        """A record whose only nonzero cell holds 2^53 resamples above 2^53 in
        some trial; the error names the first such record read, through the
        witness helper and the trial-batched records alike."""
        spec = pair_witness((1, 2))
        records = [CountRecord(tuple(sorted(s.items())), [50, 0, 20, 10])
                   for s in witness_settings(spec)]
        for i in over:
            records[i] = CountRecord(records[i].setting, [0, 0, 2 ** 53, 0])
        label = records[over[0]].setting_label
        stat = lambda rs: witness_value_from_counts(rs, spec)
        for estimate in (lambda: monte_carlo_uncertainty(stat, records, 100, seed=3),
                         lambda: _witness_estimate(records, spec, 100, seed=3)):
            with pytest.raises(ValueError, match=f"^histogram total above 2\\^53 in setting "
                                                 f"'{label}'$"):
                estimate()

    def test_std_scales_as_inverse_root_n(self):
        # on the ideal state stabilizer settings have deterministic parities
        # (std exactly zero), so scaling is checked on a noisy state
        state = apply_noise(build_resource(), NoiseModel(visibility=0.75))
        spec = resource_witness()
        settings = witness_settings(spec)
        ratios = []
        for seed in range(10):
            stds = {}
            for n in (500, 2000):
                records = [sample_setting_counts(state, s, n, seed=seed, stream=10 + i)
                           for i, s in enumerate(settings)]
                _, std = monte_carlo_uncertainty(
                    lambda rs: witness_value_from_counts(rs, spec), records, 200, seed=seed)
                stds[n] = std
            ratios.append(stds[500] / stds[2000])
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 2.0) < 0.5  # 1/sqrt(N): ratio 2 within 25%

    def test_resample_preserves_settings(self):
        recs = [CountRecord.from_counts(((1, "Z"), (2, "X")), {"00": 10, "11": 5}),
                CountRecord.from_counts(((3, "Y"),), {"0": 4, "1": 9})]
        seen = []
        monte_carlo_uncertainty(lambda rs: seen.append(rs) or 0.0, recs, 100, seed=0)
        assert len(seen) == 1  # the statistic runs once, on all trials
        assert [b.setting for b in seen[0]] == [r.setting for r in recs]
        assert [b.dense.shape for b in seen[0]] == [(100, 4), (100, 2)]


def _estimate_items():
    """Two resource-witness items of different sizes: a dense five-qubit pair
    of settings (64 cells) and a sparse box pair (8 nonzero cells)."""
    rng = np.random.default_rng(7)
    resource, box = resource_witness(), box_witness()
    dense = [CountRecord(tuple(sorted(s.items())), rng.integers(1, 60, 32))
             for s in witness_settings(resource)]
    sparse = [CountRecord(tuple(sorted(s.items())), rng.integers(0, 60, 16) * (np.arange(16) < 4))
              for s in witness_settings(box)]
    return [(dense, resource), (sparse, box)]


class TestWitnessEstimates:
    """The batch of a run's witness estimates, whose draws run on the
    calling thread and one helper thread, equals the items one at a time."""

    def test_batch_equals_items_one_by_one(self):
        items = _estimate_items()
        want = [_witness_estimate(records, spec, 150, 9) for records, spec in items]
        assert _witness_estimates(items, 150, _mc_state(9)) == want
        assert _witness_estimates(items[::-1], 150, _mc_state(9)) == want[::-1]

    @pytest.mark.parametrize("failing", ["helper", "caller", "both"])
    def test_draw_errors_surface_in_the_caller_lowest_index_first(self, monkeypatch, failing):
        """Both draws wait at a barrier, so one runs on the caller and one on
        the helper; the error of the lowest failing index is raised."""
        caller, barrier, ran = threading.current_thread(), threading.Barrier(2, timeout=10), {}
        made = iter(range(2))

        def generator(words):
            index = next(made)  # generators are made in item order

            def poisson(rates, size):
                role = "caller" if threading.current_thread() is caller else "helper"
                ran[role] = index
                barrier.wait()
                if failing in (role, "both"):
                    raise ValueError(f"draw {index}")
                return np.zeros(size, dtype=np.int64) + rates

            return SimpleNamespace(poisson=poisson)

        monkeypatch.setattr(sampling, "_generator", generator)
        with pytest.raises(ValueError) as err:
            _witness_estimates(_estimate_items(), 100, _mc_state(1))
        assert sorted(ran) == ["caller", "helper"]
        want = 0 if failing == "both" else ran[failing]
        assert str(err.value) == f"draw {want}"

    def test_stalled_helper_leaks_no_result_into_later_calls(self, monkeypatch):
        """A call interrupted while the helper holds its other draw returns
        nothing; the next call runs every draw on the caller, and once the
        helper's stale draw ends, a wrong value, it reaches no later call."""
        items = _estimate_items()
        want = [_witness_estimate(records, spec, 100, 5) for records, spec in items]
        real, caller = sampling._generator, threading.current_thread()
        stalled, release = threading.Event(), threading.Event()

        class Interrupt(BaseException):
            pass

        def generator(words):
            rng = real(words)

            def poisson(rates, size):
                if threading.current_thread() is caller:
                    stalled.wait(10)
                    raise Interrupt
                stalled.set()
                release.wait(10)
                return rng.poisson(rates, size) + 1000

            return SimpleNamespace(poisson=poisson)

        monkeypatch.setattr(sampling, "_generator", generator)
        with pytest.raises(Interrupt):
            _witness_estimates(items, 100, _mc_state(5))
        assert stalled.is_set()
        monkeypatch.setattr(sampling, "_generator", real)
        try:
            assert _witness_estimates(items, 100, _mc_state(5)) == want
        finally:
            release.set()
        for _ in range(20):
            assert _witness_estimates(items, 100, _mc_state(5)) == want

    def test_empty_histogram_precedence_is_the_items_in_order(self):
        """An item's error comes where the items one at a time raise it:
        after every earlier item succeeds, before any later item's."""
        (dense, resource), (sparse, box) = _estimate_items()
        empty = [CountRecord(r.setting, np.zeros(16, dtype=np.int64)) for r in sparse]
        big = [CountRecord(r.setting, [0] * 15 + [2 ** 53]) for r in sparse]  # resamples above
        with pytest.raises(ValueError, match="^empty histogram$"):
            _witness_estimates([(dense, resource), (empty, box)], 100, _mc_state(3))
        with pytest.raises(ValueError, match="^empty histogram$"):
            _witness_estimates([(empty, box), (big, box)], 100, _mc_state(3))
        with pytest.raises(ValueError, match="^histogram total above 2\\^53 in setting "):
            _witness_estimates([(big, box), (empty, box)], 100, _mc_state(3))
        with pytest.raises(ValueError, match="^empty histogram$"):
            _witness_estimates([(empty, box), (dense, resource)], 10, _mc_state(3))
        with pytest.raises(ValueError, match="^trials must be in"):
            _witness_estimates([(dense, resource), (empty, box)], 10, _mc_state(3))

    def test_callers_on_many_threads_share_one_helper(self):
        """Six threads on two cores, each calling the batch again and again
        with a short switch interval, all get the values of one-at-a-time
        calls."""
        items = _estimate_items()
        want = {seed: [_witness_estimate(records, spec, 100, seed) for records, spec in items]
                for seed in range(6)}
        got = {seed: [] for seed in want}

        def work(seed):
            for _ in range(10):
                got[seed].append(_witness_estimates(items, 100, _mc_state(seed)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in want]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {seed: [values] * 10 for seed, values in want.items()}

    def test_one_draw_never_touches_the_helper(self, monkeypatch):
        records, spec = _estimate_items()[0]
        want = _witness_estimate(records, spec, 100, 2)

        def no_helper():
            raise AssertionError("a single draw asked for the helper thread")

        monkeypatch.setattr(sampling, "_helper", no_helper)
        assert _witness_estimate(records, spec, 100, 2) == want
        assert _witness_estimates([(records, spec)], 100, _mc_state(2)) == [want]
        with pytest.raises(AssertionError, match="single draw"):
            _witness_estimates(_estimate_items(), 100, _mc_state(2))


class TestConvergence:
    def test_witness_error_shrinks_with_n(self):
        state = apply_noise(build_resource(), NoiseModel(visibility=0.75))
        spec = resource_witness()
        settings = witness_settings(spec)
        exact = evaluate_witness(state, spec).value
        mean_abs_err = []
        for n in (100, 1_000, 10_000, 1_000_000):
            errs = []
            for seed in range(10):
                records = [sample_setting_counts(state, s, n, seed=seed, stream=50 + i)
                           for i, s in enumerate(settings)]
                errs.append(abs(witness_value_from_counts(records, spec) - exact))
            mean_abs_err.append(np.mean(errs))
        assert all(a > b for a, b in zip(mean_abs_err, mean_abs_err[1:]))


class TestCalibration:
    def test_visibility_exists_reaching_published_fidelity(self):
        target_state = logical_basis_states()["+"]

        def fidelity(v):
            _, state = encode(PROBES["0"], forced_s3=0)
            rho = apply_noise(state, NoiseModel(visibility=v))
            return state_fidelity(rho, target_state)

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if fidelity(mid) < 0.78:
                lo = mid
            else:
                hi = mid
        v_star = (lo + hi) / 2
        assert abs(fidelity(v_star) - 0.78) < 1e-6

        # at that visibility every calibrated witness stays negative and the
        # bound never exceeds the direct fidelity
        model = NoiseModel(visibility=v_star)
        resource = apply_noise(build_resource(), model)
        w_res = evaluate_witness(resource, resource_witness()).value
        assert w_res < 0
        assert state_fidelity(resource, build_resource()) >= fidelity_lower_bound(w_res)

        basis = logical_basis_states()
        checks = [(encode(PROBES["0"], forced_s3=0)[1], box_witness()),
                  (encode(PROBES["+"], forced_s3=0)[1], ghz_witness())]
        for state, spec in checks:
            rho = apply_noise(state, model)
            assert evaluate_witness(rho, spec).value < 0
        _, state_y = encode(PROBES["+y"], forced_s3=0)
        rho_y = apply_noise(state_y, model)
        for pair in ((1, 2), (4, 5)):
            reduced = kernel.partial_trace(rho_y, pair)
            spec = pair_witness(pair)
            assert evaluate_witness(reduced, spec).value < 0


class TestCsvInterchange:
    def test_roundtrip(self):
        state = build_resource()
        settings = witness_settings(resource_witness())
        records = [sample_setting_counts(state, s, 300, seed=2, stream=i)
                   for i, s in enumerate(settings)]
        rows = counts_to_csv_rows(records)
        back = counts_from_csv_rows(rows)
        assert {r.setting_label: r.counts for r in back} \
            == {r.setting_label: r.counts for r in records}

    def test_header_optional(self):
        rows = [("Z1 Z2", "00", 5), ("Z1 Z2", "11", 7)]
        (rec,) = counts_from_csv_rows(rows)
        assert rec.counts == {"00": 5, "11": 7}
        assert rec.setting == ((1, "Z"), (2, "Z"))

    def test_labels_that_differ_in_spacing_merge(self):
        """Rows group by the parsed setting, so no row's counts end up in a
        second record of the same setting that a witness never reads."""
        rows = [("Z1 Z2", "00", "5"), ("Z1  Z2", "11", "7"), (" Z1 Z2", "00", "1")]
        (rec,) = counts_from_csv_rows(rows)
        assert rec.setting == ((1, "Z"), (2, "Z"))
        assert rec.counts == {"00": 6, "11": 7}
        # the bits follow the setting order, so a reordered setting stays apart
        assert len(counts_from_csv_rows([("Z1 Z2", "01", "1"), ("Z2 Z1", "01", "1")])) == 2

    @pytest.mark.parametrize("row, message", [
        (("Z1", "0"), "line 3: expected 3 fields"),
        (("Z1 Z2", "00", "abc"), "line 3: count 'abc' is not an integer"),
        (("Zx", "0", "3"), "line 3: bad setting token 'Zx'"),
        (("Z1 Z1", "00", "3"), "line 3: setting 'Z1 Z1' measures a qubit twice"),
        (("Z1 Z2 Z3 Z4 Z5 Z6 Z7", "0000000", "1"),
         "line 3: setting 'Z1 Z2 Z3 Z4 Z5 Z6 Z7' has 7 qubits, at most 6"),
    ])
    def test_malformed_row_names_line(self, row, message):
        rows = [COUNTS_CSV_HEADER, ("Z1 Z2", "00", "5"), row]
        with pytest.raises(ValueError, match=message):
            counts_from_csv_rows(rows)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="bad outcome"):
            CountRecord.from_counts(((1, "Z"),), {"0x": 3})
        with pytest.raises(ValueError, match="negative"):
            CountRecord.from_counts(((1, "Z"),), {"0": -1})
        with pytest.raises(ValueError, match="bad basis"):
            CountRecord.from_counts(((1, "Q"),), {"0": 1})

    @pytest.mark.parametrize("counts, bad", [
        ({"0": 2.5, "1": 1}, r"2\.5"), ({"0": 2, "1": True}, "True"),
        ({"1": np.True_}, ".*True.*"), ({"0": 2.0000001}, r"2\.0000001")],
        ids=["float", "bool", "numpy-bool", "near-integer"])
    def test_from_counts_refuses_non_integral_counts(self, counts, bad):
        """int64 storage would truncate 2.5 to 2 and read True as 1."""
        with pytest.raises(ValueError, match=f"^count {bad} in setting 'Z1' is not an integer$"):
            CountRecord.from_counts(((1, "Z"),), counts)

    @pytest.mark.parametrize("dense, bad", [
        ([2.7, 1], r"2\.7"), ([2, True], "True"), (np.array([True, False]), "True"),
        (np.array([[3.0, 4.0], [2.5, 1.0]]), r"2\.5"),
        ([[3, 4], [1, np.float64(0.5)]], r".*0\.5.*")],
        ids=["float-list", "bool-in-list", "bool-array", "float-batch", "numpy-float-in-batch"])
    def test_constructor_refuses_non_integral_counts(self, dense, bad):
        with pytest.raises(ValueError, match=f"^count {bad} in setting 'X2' is not an integer$"):
            CountRecord(((2, "X"),), dense)

    def test_integral_counts_kept(self):
        """Whole floats and numpy integers are counts; an int64 trial batch
        is stored as it is, and the CSV reader's records are unchanged."""
        setting = ((1, "Z"),)
        assert CountRecord.from_counts(setting, {"0": 2.0, "1": np.int64(3)}).dense.tolist() \
            == [2, 3]
        assert CountRecord(setting, [np.float32(4), np.uint8(1)]).dense.tolist() == [4, 1]
        batch = np.array([[3, 4], [0, 9]], dtype=np.int64)
        assert CountRecord(setting, batch).dense is batch
        [record] = counts_from_csv_rows([COUNTS_CSV_HEADER, ("Z1", "0", "7"), ("Z1", "1", "2")])
        assert record.setting == setting and record.dense.tolist() == [7, 2]

    @pytest.mark.parametrize("dense, bad", [
        (np.array([1e300, 1.0]), "1e+300"), ([1e300, 1], "1e+300"),
        ([-1e300, 1], "-1e+300"),
        (np.array([[1.0, 2.0], [2.0 ** 64, 0.0]]), "1.8446744073709552e+19"),
        ([2 ** 63, 0], str(2 ** 63)), ([1, 2.0 ** 53 + 2], "9007199254740994.0"), ([-1, 2], "-1")],
        ids=["float-array", "float-list", "negative-float", "float-batch", "int-past-int64",
             "float-past-2^53", "negative-int"])
    def test_counts_out_of_range_refused_before_the_int64_cast(self, dense, bad):
        """The int64 cast would wrap 1e300 into a negative count with a
        RuntimeWarning, or overflow on a list; each count is held to
        [0, 2^53] first and named with its setting."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^count {re.escape(bad)} in setting 'Z1' "
                                                 f"is negative or above 2\\^53$"):
                CountRecord(((1, "Z"),), dense)

    def test_range_check_keeps_counts_at_the_cap_and_integer_arrays(self):
        """A float count of exactly 2^53 is kept; integer arrays keep their
        own checks, and the CSV reader its messages."""
        setting = ((1, "Z"),)
        assert CountRecord(setting, np.array([2.0 ** 53, 0.0])).total == 2 ** 53
        with pytest.raises(ValueError, match="^negative count in setting 'Z1'$"):
            CountRecord(setting, np.array([-1, 2]))
        with pytest.raises(ValueError, match="^histogram total above 2\\^53 in setting 'Z1'$"):
            CountRecord(setting, np.array([[3, 4], [2 ** 62, 2 ** 62]]))
        message = f"^count {2 ** 60} of outcome '0' in setting 'Z1' is negative or above 2\\^53$"
        with pytest.raises(ValueError, match=message):
            CountRecord.from_counts(setting, {"0": 2 ** 60})
        with pytest.raises(ValueError, match=message):
            counts_from_csv_rows([COUNTS_CSV_HEADER, ("Z1", "0", str(2 ** 60))])

    def test_setting_size_checked_before_allocating(self, monkeypatch):
        # a 22-qubit setting would ask for 2^22 cells (33 MB), one more
        # qubit for twice that
        monkeypatch.setattr(np, "zeros", None)
        with pytest.raises(ValueError, match="has 22 qubits, at most 6"):
            CountRecord.from_counts(tuple((q, "Z") for q in range(1, 23)), {})
        with pytest.raises(ValueError, match="'Z1 X1' measures a qubit twice"):
            CountRecord.from_counts(((1, "Z"), (1, "X")), {"00": 1})
        with pytest.raises(ValueError, match="measures a qubit twice"):
            CountRecord(((2, "Z"), (2, "Z")), np.ones(4))

    def test_total_above_2_53_rejected(self):
        # two cells of 2^62 would wrap the int64 total, and the estimate
        # would read -0.0
        setting = ((1, "Z"),)
        with pytest.raises(ValueError, match="setting 'Z1'"):
            CountRecord(setting, np.array([2 ** 62, 2 ** 62]))
        with pytest.raises(ValueError, match="setting 'Z1'"):
            CountRecord.from_counts(setting, {"0": 2 ** 62, "1": 2 ** 62})
        with pytest.raises(ValueError, match="setting 'Z1'"):
            CountRecord.from_counts(setting, {"0": 2 ** 53, "1": 1})
        with pytest.raises(ValueError, match="setting 'X2'"):
            CountRecord(((2, "X"),), np.array([[3, 4], [2 ** 53, 1]]))  # one bad trial row
        assert CountRecord.from_counts(setting, {"0": 2 ** 53}).total == 2 ** 53

    def test_estimator_rejects_unmeasured_qubit(self):
        rec = CountRecord.from_counts(((1, "Z"), (2, "Z")), {"00": 4})
        with pytest.raises(ValueError, match="not measured"):
            estimate_expectation(rec, (3,))
