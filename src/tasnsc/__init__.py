"""Transferable pedestrian trajectory prediction for intersection corners.

Motion primitives and GP flow fields are learned in a curbside-aligned
skewed coordinate frame, so a model trained at one intersection predicts at
intersections with different corner angles. See the README for the full
pipeline walkthrough.
"""

from .geometry import (
    AffineMap2D,
    CurbsideFrame,
    DegenerateFrameError,
    curbside_transform,
    frame_from_curbs,
    from_curbside,
    identity_frame,
    load_frame,
    to_curbside,
    transform_trajectory,
)
from .gp import GPFitError, GPModel, Kernel, MotionPattern, fit, pattern_log_likelihood, posterior
from .metrics import EvalReport, angular_deviation, classification_accuracy, evaluate, mhd
from .predictor import (
    PipelineConfig,
    PipelineError,
    PredictedCandidate,
    PredictionSet,
    TasnscModel,
    load_model,
    predict,
    predict_many,
    save_model,
    train,
)
from .sparse_coding import (
    DegenerateMotionError,
    Dictionary,
    GridSpec,
    Segment,
    SparseCodes,
    build_transitions,
    featurize,
    learn_dictionary,
    segment,
)
from .synthgen import SceneSpec, generate, load_scene, scene_a, scene_b
from .trajectory import (
    Dataset,
    Trajectory,
    TrajectoryError,
    load_dataset,
    save_dataset,
    split_horizon,
    velocities,
)

__version__ = "0.1.0"
