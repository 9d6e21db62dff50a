"""Sign-aware 3D keypoints and kernel-weighted point-drift registration."""

from .descriptors import (
    Descriptor,
    ExtractionConfig,
    Feature,
    compute_descriptor,
    extract_features,
    extract_features_with_stats,
)
from .errors import (
    AmbiguousFrameError,
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    InitializationFailureError,
    NoOrientationError,
    ParseError,
    RejectedInputError,
    VolkeyError,
)
from .evaluation import EvaluationReport, evaluate, probe_grid, state_histogram
from .frames import Frame, enumerate_states, estimate_frame_max_gradient
from .kernels import KernelParams
from .keypoints import Keypoint, detect_keypoints
from .matching import MATCH_DTYPE, HoughParams, HoughResult, hough_init, match_features
from .registration import RegistrationConfig, RegistrationResult, e_step, register
from .synth import make_phantom, random_similarity
from .transforms import SimilarityTransform
from .volume import ScalarVolume, build_scale_space, resample, to_isotropic

__version__ = "0.1.0"
