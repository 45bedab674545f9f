"""Cross-agent association and fusion on a hand-built scene.

Two agents observe an overlapping set of objects with different noise.
The association chain cuts the remote view to the ego region of interest,
splits it at the interaction range and matches near-field pairs by the
combined geometry + appearance cost. The remote view then crosses the wire
as one packet, and one ``Receiver.step`` aligns, associates and fuses it
with the ego's view into one deduplicated track set.
"""

import numpy as np

from coopfuse import (
    Instance,
    InstanceBatch,
    MatchWeights,
    PipelineConfig,
    Receiver,
    RigidTransform,
    RoiSpec,
    StateVector,
    associate,
    encode_packet,
    filter_roi,
)
from coopfuse.core import normalize_feature
from coopfuse.robustness import identity_embedding

rng = np.random.default_rng(0)


def view(object_ids, offsets, source, conf, track_base):
    instances = []
    for k, (oid, off) in enumerate(zip(object_ids, offsets)):
        x, y = positions[oid]
        state = StateVector(x=x + off[0], y=y + off[1], z=0.0,
                            l=4.5, w=1.9, h=1.6, sin_yaw=0.0, cos_yaw=1.0,
                            vx=5.0, vy=0.0, vz=0.0)
        instances.append(Instance(
            state=state,
            feature=normalize_feature(identity_embedding(oid, 32) + 0.3 * rng.standard_normal(32)),
            confidence=conf,
            class_id=0,
            track_id=track_base + k,
            source_agent=source,
            observed_at=0,
        ))
    return instances


# Five true objects; the ego sees the three nearest, the remote agent sees
# four (two shared with the ego, two that only it can see).
positions = {0: (5.0, 2.0), 1: (12.0, -6.0), 2: (25.0, 10.0),
             3: (44.0, 3.0), 4: (48.0, -20.0)}
ego_view = view([0, 1, 2], [(0.1, -0.1), (-0.2, 0.1), (0.2, 0.2)],
                source=0, conf=0.9, track_base=1)
coop_view = view([1, 2, 3, 4], [(0.3, 0.2), (-0.1, -0.3), (0.1, 0.0), (0.0, 0.1)],
                 source=1, conf=0.8, track_base=100)

result = associate(ego_view, filter_roi(coop_view, RoiSpec()), r_int=30.0, w=MatchWeights())
print(f"matched pairs:        {len(result.matched)}")
for e, c, cost in result.matched:
    print(f"  ego#{e.track_id} <-> coop#{c.track_id}  cost={cost:.3f}")
print(f"ego-only instances:   {[i.track_id for i in result.unmatched_ego]}")
print(f"coop near, unmatched: {[i.track_id for i in result.unmatched_coop_near]}")
print(f"coop far passthrough: {[i.track_id for i in result.coop_far]}")

# The packet's sender and send time are the batch's origin: agent 1 at t = 0.
packet = encode_packet(InstanceBatch.of(coop_view), RigidTransform.identity())
tracks, _, _ = Receiver(PipelineConfig()).step([packet], ego_view, RigidTransform.identity(), 0)
print(f"\nassembled track set: {len(tracks.instances)} tracks")
for inst in tracks.instances:
    origin = "remote" if inst.track_id >> 63 else "ego"
    print(f"  id={inst.track_id:20d} ({origin:6s}) "
          f"pos=({inst.state.x:6.2f},{inst.state.y:7.2f}) conf={inst.confidence:.2f}")
