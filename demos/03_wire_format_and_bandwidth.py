"""What goes over the air, and what it costs.

Encodes a batch of instances into the binary packet format, decodes it
back, and compares the sparse per-object cost against shipping a dense
top-down feature grid covering the same area, which scales quadratically
with range instead of linearly with object count.
"""

import numpy as np

from coopfuse import RigidTransform, StateVector, Instance, InstanceBatch, decode_packet, encode_packet
from coopfuse.robustness import identity_embedding
from coopfuse.simulator import bev_baseline_cost
from coopfuse.wire import HEADER_SIZE, packet_size, record_size, serialize_packet

rng = np.random.default_rng(1)
FEATURE_DIM = 256

instances = []
for k in range(15):
    state = StateVector(x=float(rng.uniform(-50, 50)), y=float(rng.uniform(-50, 50)),
                        z=0.0, l=4.5, w=1.9, h=1.6, sin_yaw=0.0, cos_yaw=1.0,
                        vx=float(rng.uniform(-15, 15)), vy=0.0, vz=0.0)
    instances.append(Instance(state=state, feature=identity_embedding(k, FEATURE_DIM),
                              confidence=0.9, class_id=0, track_id=k,
                              source_agent=1, observed_at=500_000))

pose = RigidTransform.from_yaw(0.5, (30.0, -10.0, 0.0))
# The packet's records are filled column by column from one batch; its header's sender and
# send time are the batch's origin (agent 1 at t = 0.5 s), which decode stamps on every record.
data = encode_packet(InstanceBatch.of(instances), pose)
print(f"header: {HEADER_SIZE} B, record (D={FEATURE_DIM}): {record_size(FEATURE_DIM)} B")
print(f"packet with {len(instances)} instances: {len(data)} B "
      f"(= {packet_size(len(instances), FEATURE_DIM)} by the formula)")

packet = decode_packet(data)
print(f"decoded: sender={packet.sender_id}, t={packet.send_timestamp} us, "
      f"{packet.count} instances, bit-exact round trip: "
      f"{serialize_packet(packet) == data}")

# Cost accounting at a 2 Hz exchange rate.
rate_hz = 2.0
sparse_bps = len(data) * rate_hz
dense_bps = bev_baseline_cost(range_m=51.2, cell_m=0.4, channels=64,
                              bytes_per_elem=4, rate_hz=rate_hz)
print(f"\nsparse instance stream: {sparse_bps:10.3e} B/s")
print(f"dense grid, 51.2 m:     {dense_bps:10.3e} B/s  ({dense_bps / sparse_bps:,.0f}x)")
print(f"dense grid, 102.4 m:    {bev_baseline_cost(102.4, 0.4, 64, 4, rate_hz):10.3e} B/s"
      "  (doubling range quadruples the dense cost; the sparse cost is unchanged)")

print("\npacket bytes per payload size (affine in K):")
for k in (1, 5, 15, 30, 50):
    print(f"  K={k:3d}: {packet_size(k, FEATURE_DIM):7d} B -> {packet_size(k, FEATURE_DIM) * rate_hz:10.1f} B/s")
