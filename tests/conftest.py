import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

from coopfuse.configio import load_scenario
from coopfuse.core import Instance, StateVector
from coopfuse.robustness import identity_embedding
from coopfuse.simulator import ScenarioConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# A failing property reports its first failing example instead of shrinking it, which took
# minutes on the simulator properties; the example database still keeps the example, and the
# next run replays it first. No explain phase either: it traces every line run under numpy,
# and on a failing example it grew past 2 GB without finishing.
settings.register_profile("no_shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("no_shrink")


def shipped(name: str, seed: int = 0) -> ScenarioConfig:
    """The shipped scene ``configs/<name>.yaml``, run under ``seed``."""
    return replace(load_scenario(CONFIG_DIR / f"{name}.yaml"), seed=seed)


def make_state(
    x=0.0, y=0.0, z=0.0, l=4.5, w=1.9, h=1.6,
    yaw=0.0, vx=0.0, vy=0.0, vz=0.0,
) -> StateVector:
    return StateVector(
        x=x, y=y, z=z, l=l, w=w, h=h,
        sin_yaw=math.sin(yaw), cos_yaw=math.cos(yaw),
        vx=vx, vy=vy, vz=vz,
    )


def make_instance(
    x=0.0, y=0.0, z=0.0, yaw=0.0, vx=0.0, vy=0.0,
    confidence=0.9, class_id=0, track_id=1, source_agent=0,
    observed_at=0, feature_seed=0, dim=8, feature=None,
) -> Instance:
    if feature is None:
        feature = identity_embedding(feature_seed, dim)
    return Instance(
        state=make_state(x=x, y=y, z=z, yaw=yaw, vx=vx, vy=vy),
        feature=feature,
        confidence=confidence,
        class_id=class_id,
        track_id=track_id,
        source_agent=source_agent,
        observed_at=observed_at,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
