"""qmetro: collective-spin quantum metrology numerics.

Probe states, angular-momentum operators in the full and symmetric
representations, quantum/classical Fisher information, entanglement and
depth witnesses, and noise-scaling experiments.
"""

from .linalg import (SpectralDecomposition, eigh_hermitian, psd_sqrt, unitary_apply,
                     unitary_exp)
from .spin import (CollectiveOperator, Representation, collective_op, direction_op,
                   full_rep, gradient_op, parity_op, symmetric_rep)
from .states import (QuantumState, SqueezingSpec, dicke, ghz, maximally_mixed,
                     mix_white_noise, polarized, rotate, singlet_pi,
                     squeezed_ground_state, squeezed_ground_states, to_full)
from .fisher import (CfiResult, FisherMatrix, Povm, QfiResult, bures_fidelity,
                     classical_fisher, concave_roof_oracle, convex_roof_oracle,
                     crb_matrix, fisher_matrix, mandelstam_tamm_check, qfi,
                     qfi_alternative, qfi_pure, roof_sandwich_check, sld,
                     white_noise_qfi, wigner_yanase, zeno_time)
from .witnesses import (AvgQfiReport, DepthCertificate, MomentSet, WitnessReport,
                        avg_qfi, avg_two_particle_dm, chi_squared,
                        depth_certificate, macroscopicity, moments, optimal_ssi,
                        producibility_bound, qfi_entanglement, xi_squared_os,
                        xi_squared_s, xi_squared_singlet)
from .metrology import (NoiseChannel, PrecisionResult, Scenario, SweepRecord,
                        apply_noise, crb_consistency, depolarized_qfi, dicke_scenario,
                        error_propagation, frontier_on_polarization_grid,
                        ghz_parity_scenario, gradient_scenario,
                        noisy_moments, noisy_scaling_sweep, ramsey_curve,
                        ramsey_scenario, squeezing_frontier)

__version__ = "0.1.0"
