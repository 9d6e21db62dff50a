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
    BoundaryError,
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    InitializationFailureError,
    NoOrientationError,
    ParseError,
    RejectedInputError,
    VolkeyError,
)
from .evaluation import EvaluationReport, evaluate, probe_grid, state_histogram
from .frames import (
    Frame,
    OrientationState,
    enumerate_states,
    estimate_frame_max_gradient,
    estimate_frame_structure_tensor,
    frame_from_tensor,
)
from .kernels import KernelParams
from .keypoints import Keypoint, detect_keypoints
from .matching import (
    MATCH_DTYPE,
    HoughParams,
    HoughResult,
    hough_init,
    match_features,
    transform_between,
)
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    e_step,
    init_lambda_sq,
    register,
)
from .synth import make_phantom, random_similarity
from .transforms import SimilarityTransform
from .volume import (
    ScalarVolume,
    ScaleSpace,
    build_scale_space,
    gaussian_blur,
    gradient_at,
    laplacian_at,
    resample,
    to_isotropic,
    trilinear_sample,
)

__version__ = "0.1.0"
