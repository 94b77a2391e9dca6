"""Exact simulator and analysis toolkit for the four-qubit graph code.

The package rebuilds the photonic graph-code experiment at the qubit level:
the five-qubit resource state, ancilla-measurement encoding, Pauli-error
injection and syndrome readout, loss recovery with feedforward, entanglement
witnessing, state and process tomography, and Poissonian count statistics
with Monte Carlo error bars.
"""

__version__ = "0.1.0"

from .kernel import (DensityOperator, Observable, PureState, apply_unitary,
                     expectation, maximally_mixed, overlap, partial_trace,
                     projective_measure, reorder)
from .pauli import (PauliString, conjugate_pauli, conjugate_sequence, expand_logical,
                    pauli_commutes, pauli_expectations, pauli_multiply)
from .graphs import (BOX, PATH5, RESOURCE, Graph, build_linear_cluster5,
                     build_resource, graph_state, resource_state_expansion,
                     stabilizer_generators)
from .code import (AncillaState, Diagnosis, LogicalOperators, PROBES,
                   RecoveryRecipe, SyndromeRecord, decode_no_loss, diagnose,
                   encode, inject_pauli_error,
                   logical_basis_states, logical_ops, lose_qubit,
                   measure_syndromes, recover, recover_average, recovery_recipe,
                   syndrome_operators)
from .tomography import (ChannelSample, ChiMatrix, LogicalDensityMatrix,
                         average_probe_fidelity, bloch_image, chi_hadamard,
                         chi_identity, logical_tomography,
                         process_fidelity, reconstruct_chi,
                         sphere_average_fidelity, state_fidelity)
from .witnesses import (WitnessSpec, builtin_witnesses, evaluate_witness,
                        fidelity_lower_bound)
from .sampling import (CountRecord, NoiseModel, apply_noise, counts_from_csv_rows,
                       counts_to_csv_rows, estimate_expectation,
                       monte_carlo_uncertainty, sample_setting_counts,
                       witness_settings, witness_value_from_counts)
from .runner import ConfigError, ExperimentConfig, ReportBundle, run_experiment
