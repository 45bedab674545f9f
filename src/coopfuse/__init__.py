"""coopfuse: sparse cooperative perception fusion at desk scale.

Agents exchange compact per-object instances (kinematic state plus an
appearance feature) over a lossy, latent channel. The receiving side
latency-compensates, projects into its own frame, associates across
agents, and fuses into a consistent track set; an evaluation harness
measures the interaction-range and latency trade-offs end to end.
"""

from .core import (
    DegenerateHeading,
    Instance,
    InstanceBatch,
    RigidTransform,
    StateVector,
    relative_transform,
)
from .alignment import (
    AlignmentConfig,
    HorizonExceeded,
    align_instance,
    compensate_latency,
    transform_state,
)
from .association import (
    MatchWeights,
    RoiSpec,
    associate,
    filter_roi,
    match,
)
from .fusion import (
    FusionConfig,
    TrackIdRegistry,
    assemble_output,
    coarse_fuse,
    refine_tracks,
)
from .robustness import (
    ObservationNoiseParams,
    TransformNoiseParams,
)
from .wire import MalformedPacket, decode_packet, encode_packet
from .simulator import (
    ScenarioConfig,
    run_scenario,
    sense,
)
from .evaluation import (
    compute_metrics,
    sweep_interaction_range,
    sweep_latency,
)
from .configio import ConfigError, load_scenario

__version__ = "0.1.0"
