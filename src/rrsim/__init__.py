"""rrsim: wear-timing simulation of byte-addressable resistive memory,
plus a covert codec that hides bit-strings in cell wear and an experiment
harness that measures how well they survive."""

from .chip import (ChipGeometry, ChipModel, TimingTrace, load_state, new_chip,
                   read_state)
from .calibration import (CharacterizationRecord, characterize, fit_profile,
                          min_stress_for_separation, synthesize_records)
from .codec import (AddressPlan, DecodeResult, EncodeReport, HidingKey,
                    Payload, best_threshold, classify, decode, encode,
                    generate_key, kmeans2, load_key, measure, save_key)
from .errors import (AmbiguousDecodeWarning, BoundsError, ConfigurationError,
                     EncodeError, FitError, FormatError, NotSeparableError,
                     RRSimError, TruncatedRunWarning, UsedCellsWarning,
                     WearOutError)
from .harness import (REALISTIC, WORST_CASE, SeparationReport, UsagePattern,
                      age_retention, attack_wrong_base, attack_wrong_key,
                      bake, encode_time, endurance_cost, min_separable_replica,
                      min_threshold_errors, retrieve_time, separation_report,
                      simulate_usage, stress_tolerance, sweep_initial_stress,
                      sweep_post_hiding, sweep_replica_size, write_reports_csv)
from .profile import (CalibrationProfile, WearCurve, default_profile,
                      load_profile, save_profile)

__version__ = "0.1.0"
