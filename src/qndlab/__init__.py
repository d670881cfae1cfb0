"""Numerical laboratory for quantum nondemolition measurement of optical
amplitude fluctuations through a detuned optomechanical cavity.

All spectra are symmetrized, double-sided, and normalized so a pure
vacuum quadrature reads 1 (SQL units).
"""

from .errors import ConfigError, FormatError, ModelError, QndError, StatisticsError
from .params import (
    CavityParams,
    CouplingState,
    DetectionParams,
    DriveParams,
    MechanicalParams,
    SystemParams,
    ZetaModel,
    thermal_occupancy,
)
from .om_core import (
    effective_susceptibility,
    lock_phase_for_signal_phase,
    mean_reflected_field,
    mech_susceptibility,
    optical_susceptibility,
    apply_losses_and_modematch,
    output_port_coefficients,
    quadrature_phases,
    signal_phase_tuning_range,
    single_photon_coupling,
    steady_state,
    transfer_coefficients,
)
from .theory import (
    NoiseBudget,
    SimpleModelParams,
    SpectrumModel,
    coherence,
    default_omega_grid,
    displacement_spectrum,
    fixed_phase_output_spectrum,
    min_quadrature_spectrum,
    noise_budget,
    readout_noise_spectrum,
    residual_spectrum_theory,
    simple_residual_spectrum,
)
from .synth import (
    DataSet,
    QndFile,
    SynthConfig,
    read_dataset,
    synthesize,
    synthesize_file,
    write_dataset,
)
from .estimation import (
    ResidualEstimate,
    SegmentSet,
    SpectrumEstimate,
    band_average,
    msc_estimate,
    power_spectrum,
    residual_single,
    residual_two_channel,
    segment_and_select,
    shot_calibration,
    shot_linearity_sweep,
    split_consistency,
    write_spectrum_csv,
    subtract_electronic_noise,
    transform,
)
from .fitting import FitProblem, FitResult, fit
from .config import RunConfig, default_config_text, load_config, reference_defaults
from .pipeline import Analysis, analyze

__version__ = "0.1.0"
