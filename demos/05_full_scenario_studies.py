"""The two headline studies, end to end on the shipped scenes in configs/.

Study 1: channel latency. Fast objects plus a wide-coverage remote agent
make stale instances expensive; constant-velocity compensation should
keep quality flat while the uncompensated pipeline decays.

Study 2: interaction range. Fusing near-field pairs removes duplicate
detections, but fusing far-field pairs blends junk ego estimates into
good remote ones; quality peaks at an interior radius.
"""

from pathlib import Path

from coopfuse.configio import load_scenario
from coopfuse.evaluation import (
    DEFAULT_LATENCY_SWEEP_MS,
    DEFAULT_RANGE_SWEEP,
    sweep_interaction_range,
    sweep_latency,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

print("== study 1: latency, compensated vs not ==")
rows = sweep_latency(load_scenario(CONFIG_DIR / "latency_study.yaml"), DEFAULT_LATENCY_SWEEP_MS)
print(f"{'latency':>8s} {'comp':>5s} {'AP':>6s} {'RMSE':>6s} {'shared-instance err':>20s}")
for row in rows:
    print(f"{row['latency_ms']:7.0f}ms {row['compensated']:5d} {row['ap']:6.3f} "
          f"{row['rmse']:6.3f} {row['coop_prefusion_err']:17.2f} m")

print("\n== study 2: interaction range ==")
rows = sweep_interaction_range(load_scenario(CONFIG_DIR / "range_study.yaml"), DEFAULT_RANGE_SWEEP)
print(f"{'r_int':>6s} {'AP':>6s} {'AMOTA':>7s} {'duplicate rate':>15s}")
for row in rows:
    print(f"{row['r_int']:6.0f} {row['ap']:6.3f} {row['amota_like']:7.3f} "
          f"{row['duplicate_rate']:15.3f}")
print("\nDuplicates fall monotonically as more of the scene is fused; the "
      "tracking score peaks before far-field fusion starts doing damage.")
