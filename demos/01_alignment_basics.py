"""Aligning a remote instance into the ego frame, step by step.

A remote agent saw a car 300 ms ago, in its own coordinate frame. To use
that observation, the ego vehicle must (a) predict the car forward to its
own clock using the velocity carried in the state, then (b) project the
result through the relative rigid transform between the two agents.
"""

import math

import numpy as np

from coopfuse import (
    AlignmentConfig,
    Instance,
    RigidTransform,
    StateVector,
    align_instance,
    compensate_latency,
    relative_transform,
    transform_state,
)
from coopfuse.core import seconds_to_micros
from coopfuse.robustness import identity_embedding


def show(label, state):
    print(f"{label:42s} pos=({state.x:7.2f},{state.y:7.2f}) "
          f"yaw={math.degrees(state.yaw):7.1f} deg  v=({state.vx:5.1f},{state.vy:5.1f})")


# A car 40 m ahead of the remote agent, driving 10 m/s along +x.
car = StateVector(x=40.0, y=0.0, z=0.0, l=4.6, w=1.9, h=1.5,
                  sin_yaw=0.0, cos_yaw=1.0, vx=10.0, vy=0.0, vz=0.0)
show("as observed by the remote agent", car)

# (a) Latency compensation: 300 ms at 10 m/s is exactly 3 m.
predicted = compensate_latency(car, 0.3)
show("predicted 300 ms forward", predicted)

# (b) Coordinate projection. The remote agent sits 50 m east of the ego
# vehicle and faces west (yaw 180 deg), so the car lands in front of the
# ego with its heading and velocity flipped into the ego convention.
# Each pose is taken at its agent's own time: the ego's at t = 0.3 s, the
# remote agent's at t = 0, when it saw the car.
ego_pose = RigidTransform.identity()
coop_pose = RigidTransform.from_yaw(math.pi, (50.0, 0.0, 0.0))
rel = relative_transform(ego_pose, coop_pose)
print(f"\nrelative transform: yaw={math.degrees(rel.yaw):6.1f} deg, "
      f"origin offset={np.round(rel.translation, 2)}")
show("projected into the ego frame", transform_state(predicted, rel))

# The one-call version bundles both steps and carries the feature along.
inst = Instance(state=car, feature=identity_embedding(7, 32), confidence=0.93,
                class_id=0, track_id=4, source_agent=1, observed_at=0)
aligned = align_instance(inst, rel, seconds_to_micros(0.3), AlignmentConfig())
show("\nalign_instance (compensate + project)", aligned.state)
print(f"identity preserved: track_id={aligned.track_id}, "
      f"source_agent={aligned.source_agent}, "
      f"restamped to t={aligned.observed_at} us")
