"""coopfuse: sparse cooperative perception fusion at desk scale.

Agents exchange compact per-object instances (kinematic state plus an
appearance feature) over a lossy, latent channel. The receiving side
latency-compensates, projects into its own frame, associates across
agents, and fuses into a consistent track set; an evaluation harness
measures the interaction-range and latency trade-offs end to end.
"""

from .core import (
    DegenerateHeading,
    GroundTruthObject,
    Instance,
    RigidTransform,
    StateVector,
    Timestamp,
    compose,
    invert,
    normalize_feature,
    normalize_heading,
    relative_transform,
)
from .alignment import (
    AlignmentConfig,
    FeatureAligner,
    HorizonExceeded,
    align_instance,
    compensate_latency,
    transform_state,
)
from .association import (
    AssociationResult,
    MatchWeights,
    RoiSpec,
    associate,
    filter_roi,
    gate_interaction,
    match,
)
from .fusion import (
    FusionConfig,
    TrackIdRegistry,
    TrackSet,
    assemble_output,
    coarse_fuse,
    deduplicate,
    refine_tracks,
)
from .robustness import (
    EmptyOracle,
    ObservationNoiseParams,
    TransformNoiseParams,
    generate_denoising_scene,
    match_accuracy,
    perturb_observation,
    perturb_transform,
)
from .wire import InstancePacket, MalformedPacket, decode_packet, encode_packet
from .simulator import (
    AgentSpec,
    ChannelModel,
    PipelineConfig,
    ScenarioConfig,
    SensorModel,
    World,
    WorldObject,
    bev_baseline_cost,
    run_scenario,
    sense,
    step_world,
    transmit,
)
from .evaluation import (
    FrameGroundTruth,
    MetricsReport,
    compute_ap,
    compute_metrics,
    compute_tracking,
    match_to_gt,
    sweep_interaction_range,
    sweep_latency,
)
from .configio import ConfigError, dump_scenario, load_scenario

__version__ = "0.1.0"
