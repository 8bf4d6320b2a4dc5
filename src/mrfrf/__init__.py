"""Fast-rate FRF identification for multirate closed loops.

Identifies the frequency response of a fast-rate plant operating in a
closed loop with a slow-rate output, by lifting the fast-rate signals to a
time-invariant multivariable representation, estimating the lifted sensitivity
functions with local rational models, and recovering the fast-rate response on
the full grid, beyond the Nyquist frequency of the slow output.
"""

from .bench import (BenchmarkScenario, ErrorReport, build_benchmark_scenario,
                    error_report, run_benchmark)
from .errors import (ConfigError, DataFormatError, LocalFitError, LtiError,
                     MrfrfError, PoleOnGridError, RateError, SimulationError)
from .ident import IdentResult, first_row_lifted_P, identify, recover_P
from .loopsim import (MultirateLoopSpec, NoiseSpec, SimulationOutput,
                      benchmark_loop, simulate, surrogate_plant)
from .lrm import LocalFitResult, LocalModelConfig, fit_local, param_count, sweep_bins
from .lti import (FrfMatrix, RationalTF, StateSpace, assert_stable,
                  benchmark_controller, dft_grid, filter_signal, freq_response,
                  to_state_space)
from .multirate import (LiftedFrf, SignalRecord, downsample, lift, lift_frf,
                        lift_loop_state_space, unlift, upsample_zoh,
                        zero_insert)
from .spectral import (MultisineSpec, alias_slow_spectrum, dft, idft, multisine,
                       predict_slow_output_steady)

__version__ = "0.1.0"
