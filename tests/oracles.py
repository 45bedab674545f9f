"""Independent reference implementations the tests check against.

Everything here is deliberately brute force: exhaustive enumeration and
first-principles arithmetic, sharing no code path with the library.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np


def brute_force_min_total(cost: np.ndarray) -> float:
    """Minimum total over all maximal one-to-one assignments, by enumeration."""
    n, m = cost.shape
    best = None
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = sum(cost[i, j] for i, j in enumerate(perm))
            if best is None or total < best:
                best = total
    else:
        for perm in itertools.permutations(range(n), m):
            total = sum(cost[i, j] for j, i in enumerate(perm))
            if best is None or total < best:
                best = total
    return float(best)


def brute_force_lex_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """The lexicographically smallest row-sorted min(n, m)-pair list among the
    assignments whose finite total is within 1e-9 * max(1, |best|) of the
    best, by enumeration; raises ``ValueError`` when no total is finite."""
    n, m = cost.shape
    if n <= m:
        candidates = [[(i, j) for i, j in enumerate(perm)] for perm in itertools.permutations(range(m), n)]
    else:
        candidates = [sorted((i, j) for j, i in enumerate(perm)) for perm in itertools.permutations(range(n), m)]
    totals = [(sum(float(cost[i, j]) for i, j in pairs), pairs) for pairs in candidates]
    finite = [(total, pairs) for total, pairs in totals if math.isfinite(total)]
    if not finite:
        raise ValueError("no assignment has a finite total")
    best = min(total for total, _ in finite)
    tol = 1e-9 * max(1.0, abs(best))
    return min(pairs for total, pairs in finite if total <= best + tol)


def brute_force_matched_total(cost: np.ndarray, threshold: float) -> float:
    """Matched cost after demotion, replicated by enumeration.

    Finds the minimum-total maximal assignment (lexicographically smallest
    pair list among exact ties), then sums only the pairs at or under the
    threshold, mirroring the demote-after-solve contract.
    """
    n, m = cost.shape
    best_total = None
    best_pairs = None
    if n <= m:
        candidates = (
            tuple((i, j) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(m), n)
        )
    else:
        candidates = (
            tuple(sorted((i, j) for j, i in enumerate(perm)))
            for perm in itertools.permutations(range(n), m)
        )
    for pairs in candidates:
        total = sum(cost[i, j] for i, j in pairs)
        if (
            best_total is None
            or total < best_total - 1e-12
            or (abs(total - best_total) <= 1e-12 and pairs < best_pairs)
        ):
            best_total, best_pairs = total, pairs
    return float(sum(cost[i, j] for i, j in best_pairs if cost[i, j] <= threshold))


def reference_pair_cost(ego, coop, w):
    """Matching cost of one (ego, coop) pair, from its definition: the L1
    distance between the two states with each component group weighted by
    ``w``, plus ``w.alpha`` times the cosine distance of the unit features."""
    groups = (
        (w.w_pos, ("x", "y", "z")),
        (w.w_dim, ("l", "w", "h")),
        (w.w_heading, ("sin_yaw", "cos_yaw")),
        (w.w_vel, ("vx", "vy", "vz")),
    )
    geo = sum(
        weight * abs(getattr(ego.state, name) - getattr(coop.state, name))
        for weight, names in groups
        for name in names
    )
    cosine = sum(a * b for a, b in zip(ego.feature.tolist(), coop.feature.tolist()))
    return geo + w.alpha * (1.0 - cosine)


def rotation_difference(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix, det fixed to +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def reference_orthonormalized(matrix: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the first two columns, the third their cross product: the
    first column over its ``np.linalg.norm``, the second less its projection on
    that, over its own norm, stacked with ``np.column_stack``."""
    c0 = matrix[:, 0] / np.linalg.norm(matrix[:, 0])
    c1 = matrix[:, 1] - np.dot(matrix[:, 1], c0) * c0
    c1 /= np.linalg.norm(c1)
    return np.column_stack([c0, c1, np.cross(c0, c1)])


def brute_force_greedy_match(preds, gts, dist_threshold):
    """Greedy matching written from its definition.

    ``preds`` are ``(x, y, confidence, class_id, track_id)`` and ``gts`` are
    ``(object_id, x, y, class_id)``. Predictions are visited by descending
    confidence, ties in input order; each claims the nearest free
    same-class object within the threshold, the later object winning an
    exact distance tie. Returns ``(pairs, unmatched, free)``: ``pairs`` holds
    ``(pred index, gt index, distance)`` in visiting order, ``unmatched``
    the unmatched prediction indices in visiting order, ``free`` the
    unclaimed gt indices.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
    free = set(range(len(gts)))
    pairs, unmatched = [], []
    for i in order:
        x, y, _, cls, _ = preds[i]
        candidates = [
            (math.hypot(x - gts[k][1], y - gts[k][2]), -k)
            for k in free
            if gts[k][3] == cls
        ]
        candidates = [c for c in candidates if c[0] <= dist_threshold]
        if candidates:
            d, neg_k = min(candidates)
            free.remove(-neg_k)
            pairs.append((i, -neg_k, d))
        else:
            unmatched.append(i)
    return pairs, unmatched, free


def reference_pairs(queries, refs, radius):
    """Every same-class pair within ``radius``, written from its definition.

    ``queries`` and ``refs`` are ``(x, y, class_id)``. Returns
    ``(query index, ref index, distance)`` by query, then by ref, with the
    distance ``math.hypot(qx - x, qy - y)``.
    """
    pairs = []
    for i, (qx, qy, query_class) in enumerate(queries):
        for k, (x, y, ref_class) in enumerate(refs):
            d = math.hypot(qx - x, qy - y)
            if ref_class == query_class and d <= radius:
                pairs.append((i, k, d))
    return pairs


def _ranked_hits(frames, dist_threshold):
    """(confidence, is_tp) of every prediction, by descending confidence.

    Ties keep frame order and, within a frame, matched before unmatched,
    each in visiting order.
    """
    scored = []
    for preds, gts in frames:
        pairs, unmatched, _ = brute_force_greedy_match(preds, gts, dist_threshold)
        scored += [(preds[i][2], True) for i, _, _ in pairs]
        scored += [(preds[i][2], False) for i in unmatched]
    return sorted(scored, key=lambda item: -item[0])


def brute_force_scores(frames, thresholds, tracking_threshold):
    """AP, MOTA, AMOTA, ID switches, duplicate rate and RMSE, from scratch.

    ``frames`` is a list of ``(preds, gts)`` in the tuple layout of
    :func:`brute_force_greedy_match`. AP is the 11-point interpolated
    precision averaged over ``thresholds``. Every confidence cut of the
    AMOTA recall grid is greedy-matched again from the kept predictions.
    """
    grid = [k / 10 for k in range(11)]
    total_gt = sum(len(gts) for _, gts in frames)

    def ap_at(dist_threshold):
        tp_cum, recalls, precisions = 0, [], []
        for rank, (_, is_tp) in enumerate(_ranked_hits(frames, dist_threshold), start=1):
            tp_cum += is_tp
            recalls.append(tp_cum / total_gt if total_gt else 0.0)
            precisions.append(tp_cum / rank)
        return sum(
            max([p for r, p in zip(recalls, precisions) if r >= target - 1e-12], default=0.0)
            for target in grid
        ) / len(grid)

    def mota_at(conf_min):
        errors = switches = 0
        last_track = {}
        for preds, gts in frames:
            kept = [p for p in preds if p[2] >= conf_min]
            pairs, unmatched, free = brute_force_greedy_match(kept, gts, tracking_threshold)
            errors += len(unmatched) + len(free)
            for i, k, _ in pairs:
                object_id, track_id = gts[k][0], kept[i][4]
                if object_id in last_track and last_track[object_id] != track_id:
                    switches += 1
                last_track[object_id] = track_id
        mota = max(0.0, 1.0 - (errors + switches) / total_gt) if total_gt else 0.0
        return mota, switches

    mota, switches = mota_at(-math.inf)
    ranked = _ranked_hits(frames, tracking_threshold)
    motas = [mota]
    for target in grid[1:]:
        tp_cum, cut = 0, None
        for conf, is_tp in ranked:
            tp_cum += is_tp
            if total_gt and tp_cum / total_gt >= target - 1e-12:
                cut = conf
                break
        motas.append(0.0 if cut is None else mota_at(cut)[0])

    duplicates, distances = 0, []
    for preds, gts in frames:
        pairs, unmatched, _ = brute_force_greedy_match(preds, gts, tracking_threshold)
        distances += [d for _, _, d in pairs]
        claimed = [gts[k] for _, k, _ in pairs]
        for i in unmatched:
            x, y, _, cls, _ = preds[i]
            duplicates += any(
                g[3] == cls and math.hypot(x - g[1], y - g[2]) <= tracking_threshold
                for g in claimed
            )
    return {
        "ap": sum(ap_at(t) for t in thresholds) / len(thresholds),
        "mota": mota,
        "amota": sum(motas) / len(motas),
        "id_switches": switches,
        "duplicate_rate": duplicates / total_gt if total_gt else 0.0,
        "rmse": math.sqrt(sum(d * d for d in distances) / len(distances)) if distances else math.nan,
    }


def reference_track_ids(previous, detections, dt, gate, next_id):
    """Track IDs of one sensing pass, continued from the pass before it.

    ``previous`` lists the last pass's detections in order as
    ``(track_id, class_id, x, y, vx, vy)`` in the global frame; ``detections``
    lists this pass's as ``(class_id, x, y)``. Each detection in turn takes
    the nearest previous detection of its class that no earlier detection
    took, moved on by ``velocity * dt``, if that planar distance is at most
    ``gate``; of equally near ones the later in ``previous`` wins. Any other
    detection gets the next fresh ID. Returns the IDs and the next fresh ID.
    """
    taken = [False] * len(previous)
    ids = []
    for class_id, x, y in detections:
        best, best_d = None, gate
        for k, (track_id, prev_class, px, py, vx, vy) in enumerate(previous):
            if taken[k] or prev_class != class_id:
                continue
            d = math.hypot(x - (px + vx * dt), y - (py + vy * dt))
            if d <= best_d:
                best, best_d = k, d
        if best is None:
            ids.append(next_id)
            next_id += 1
        else:
            taken[best] = True
            ids.append(previous[best][0])
    return ids, next_id


def reference_deduplicate(items, radius):
    """Indices of the instances duplicate suppression keeps, in output order.

    ``items`` are ``(x, y, confidence, class_id)``. Items are visited by
    descending confidence, ties in input order; an item is dropped when an
    item kept before it has its class and lies within ``radius`` of it.
    """
    kept = []
    for i in sorted(range(len(items)), key=lambda i: -items[i][2]):
        x, y, _, cls = items[i]
        if not any(
            items[k][3] == cls and math.hypot(items[k][0] - x, items[k][1] - y) <= radius
            for k in kept
        ):
            kept.append(i)
    return kept


def reference_nearest(points, x, y):
    """The least ``math.hypot(x - gx, y - gy)`` over every ``(gx, gy)`` in ``points``, in any order; inf if none."""
    best = math.inf
    for gx, gy in points:
        best = min(best, math.hypot(x - gx, y - gy))
    return best


def reference_prefusion_error(aligned, gt):
    """Mean distance from each aligned point to its nearest same-class object.

    Points are ``(x, y, class_id)``. Aligned points with no object of their
    class are skipped; the mean is taken in aligned order, NaN if empty.
    """
    errors = []
    for x, y, cls in aligned:
        dists = [math.hypot(x - gx, y - gy) for gx, gy, gcls in gt if gcls == cls]
        if dists:
            errors.append(min(dists))
    return float(np.mean(errors)) if errors else math.nan


def reference_min_separation(a_pos, a_vel, b_pos, b_vel, duration):
    """Closest planar approach of two linear trajectories on [0, duration].

    Positions and velocities are 3-vectors; z is ignored. The approach time
    is clamped to the interval and is 0 for (near-)equal velocities.
    """
    dp = (a_pos - b_pos)[:2]
    dv = (a_vel - b_vel)[:2]
    speed2 = float(dv @ dv)
    t_star = 0.0 if speed2 < 1e-12 else min(max(-float(dp @ dv) / speed2, 0.0), duration)
    closest = dp + dv * t_star
    return float(np.hypot(closest[0], closest[1]))


def reference_step(row, yaw_rate, dt):
    """One object's 11 state components ``(x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz)``
    advanced by ``dt`` seconds.

    Below 1e-12 rad/s of yaw rate the object moves straight: each position
    component gains its velocity times ``dt``. Otherwise its heading turns at
    ``yaw_rate`` and its planar speed points along the new heading, so the
    planar position moves along the circular arc of radius speed / yaw_rate;
    z still moves straight. Dimensions and vz never change.
    """
    x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz = row
    if abs(yaw_rate) < 1e-12:
        return [x + vx * dt, y + vy * dt, z + vz * dt, l, w, h, sin_yaw, cos_yaw, vx, vy, vz]
    speed = math.hypot(vx, vy)
    start = math.atan2(sin_yaw, cos_yaw)
    end = start + yaw_rate * dt
    radius = speed / yaw_rate
    return [
        x + radius * (math.sin(end) - math.sin(start)),
        y - radius * (math.cos(end) - math.cos(start)),
        z + vz * dt, l, w, h,
        math.sin(end), math.cos(end),
        speed * math.cos(end), speed * math.sin(end), vz,
    ]


def reference_detections(objects, agent_xy, sensor, rng):
    """One sensing pass of an agent at ``agent_xy`` facing +x, one draw call per noise block.

    ``objects`` are ``(object_id, class_id, x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz)``
    in the global frame, and ``sensor`` is read by field name. In visiting order, each
    object is moved into the agent frame (a translation; the heading rescaled by its planar
    norm), gated by range and field of view, and detected with one ``rng.random()``. A
    detection then draws its noise as separate ``rng.normal`` calls: planar position (at a
    sigma that grows with range), height, dimensions (clamped at 0.01), velocity, each only
    when its sigma is positive; then ``rng.standard_normal`` noise for the identity feature,
    which is scaled to unit norm. Returns ``(class_id, state, confidence, feature)`` each.
    """
    from coopfuse.robustness import identity_embedding

    def mix(near, far, r, power=1.0):
        return near + (far - near) * min(r / sensor.max_range, 1.0) ** power

    ax, ay = agent_xy
    detections = []
    for object_id, class_id, x, y, z, l, w, h, sin_yaw, cos_yaw, vx, vy, vz in objects:
        px, py, pz = x - ax, y - ay, z
        norm = math.hypot(cos_yaw, sin_yaw)
        sin_yaw, cos_yaw = sin_yaw / norm, cos_yaw / norm
        r = math.hypot(px, py)
        if r > sensor.max_range:
            continue
        if sensor.fov_deg < 360.0 and abs(math.atan2(py, px)) > math.radians(sensor.fov_deg) / 2.0:
            continue
        if rng.random() >= mix(sensor.detect_prob_near, sensor.detect_prob_far, r):
            continue
        if sensor.pos_noise_sigma > 0:
            sigma = sensor.pos_noise_sigma * mix(1.0, sensor.pos_noise_far_factor, r, sensor.pos_noise_range_power)
            nx, ny = rng.normal(0.0, sigma, 2).tolist()
            nz = float(rng.normal(0.0, sensor.pos_noise_sigma))
            px, py, pz = px + nx, py + ny, pz + nz
        if sensor.dim_noise_sigma > 0:
            dl, dw, dh = rng.normal(0.0, sensor.dim_noise_sigma, 3).tolist()
            l, w, h = max(l + dl, 0.01), max(w + dw, 0.01), max(h + dh, 0.01)
        if sensor.vel_noise_sigma > 0:
            nx, ny, nz = rng.normal(0.0, sensor.vel_noise_sigma, 3).tolist()
            vx, vy, vz = vx + nx, vy + ny, vz + nz
        confidence = min(max(mix(sensor.confidence_near, sensor.confidence_far, r), 0.0), 1.0)
        feature = identity_embedding(object_id, sensor.feature_dim)
        feature = feature + sensor.feature_noise_sigma * rng.standard_normal(sensor.feature_dim)
        feature = feature / float(np.linalg.norm(feature))
        detections.append((class_id, (px, py, pz, l, w, h, sin_yaw, cos_yaw, vx, vy, vz), confidence, feature))
    return detections


def reference_cluttered_rows(count, spacing, rng, speed_range=(2.0, 10.0)):
    """The states of a jittered clutter grid, one scalar ``rng.uniform`` call per draw.

    Object i sits at column ``i % side`` and row ``i // side`` of a grid with
    ``side = ceil(sqrt(count))`` and pitch ``spacing``. Per object, in order: a
    jitter pair in +-spacing/4 (one call of size 2), the speed, the heading in
    [-pi, pi), then l in [3.8, 5.0), w in [1.7, 2.1) and h in [1.4, 1.8). The
    velocity points along the heading. Returns one 11-tuple per object in
    ``StateVector`` order.
    """
    side = math.ceil(math.sqrt(count))
    rows = []
    for i in range(count):
        row, col = divmod(i, side)
        jx, jy = rng.uniform(-spacing / 4, spacing / 4, 2).tolist()
        speed = rng.uniform(*speed_range)
        theta = rng.uniform(-math.pi, math.pi)
        l, w, h = rng.uniform(3.8, 5.0), rng.uniform(1.7, 2.1), rng.uniform(1.4, 1.8)
        rows.append((col * spacing + jx, row * spacing + jy, 0.0, l, w, h, math.sin(theta), math.cos(theta),
                     speed * math.cos(theta), speed * math.sin(theta), 0.0))
    return rows


def reference_denoising_views(views, rng, pos_range, other_range, dim, sigma):
    """Both views of a denoising scene, one object at a time.

    ``views`` holds one list of ``(object_id, state)`` per view, in draw order, each state
    an 11-tuple in ``StateVector`` order. Per object: ``rng.uniform(-pos_range, pos_range,
    3)`` moves x, y, z and ``rng.uniform(-other_range, other_range, 8)`` moves the other
    eight components; the dimensions are clamped at 0.01, and the heading is scaled by its
    ``math.hypot`` norm, unless that is below 1e-12 (the draw cancelled it exactly) and the
    state's own heading stays. Then the object's identity embedding (standard normals from
    seed ``object_id + 0x5EED``, scaled to unit norm) plus ``sigma *
    rng.standard_normal(dim)`` is scaled to unit norm. Returns ``(state, feature)`` pairs
    per view.
    """
    out = []
    for view in views:
        pairs = []
        for object_id, (x, y, z, l, w, h, s, c, vx, vy, vz) in view:
            dx, dy, dz = rng.uniform(-pos_range, pos_range, 3).tolist()
            dl, dw, dh, ds, dc, dvx, dvy, dvz = rng.uniform(-other_range, other_range, 8).tolist()
            norm = math.hypot(s + ds, c + dc)
            heading = (s, c) if norm < 1e-12 else ((s + ds) / norm, (c + dc) / norm)
            state = (x + dx, y + dy, z + dz, max(l + dl, 0.01), max(w + dw, 0.01), max(h + dh, 0.01),
                     *heading, vx + dvx, vy + dvy, vz + dvz)
            embedding = np.random.default_rng(object_id + 0x5EED).standard_normal(dim)
            feature = embedding / np.linalg.norm(embedding) + sigma * rng.standard_normal(dim)
            pairs.append((state, feature / np.linalg.norm(feature)))
        out.append(pairs)
    return out


def reference_packet(instances, rotation, translation, t, sender_id):
    """A packet packed field by field with ``struct`` from the documented layout.

    Header: magic 0x4B475121 (u32), version 1 (u16), sender id (u16),
    timestamp (i64), rotation (9 x f32, row-major), translation (3 x f32),
    count (u16), feature dimension (u16; 0 with no records). Each record:
    track id (u64, 0xFFFF_FFFF_FFFF_FFFF when untracked), class (u8),
    confidence (f32), 11 state floats and D feature floats (f32), packed.
    """
    dim = len(instances[0].feature) if instances else 0
    rot = [float(v) for row in rotation for v in row]
    out = [struct.pack("<IHHq12fHH", 0x4B475121, 1, sender_id, t, *rot, *map(float, translation), len(instances), dim)]
    for inst in instances:
        s = inst.state
        track_id = 0xFFFF_FFFF_FFFF_FFFF if inst.track_id is None else inst.track_id
        out.append(struct.pack(
            f"<QBf11f{dim}f", track_id, inst.class_id, inst.confidence,
            s.x, s.y, s.z, s.l, s.w, s.h, s.sin_yaw, s.cos_yaw, s.vx, s.vy, s.vz, *map(float, inst.feature),
        ))
    return b"".join(out)
