"""Correctness oracles computed apart from the program.

Nothing here calls into the fusion, query or trigger code: the
posterior arithmetic is written out from the paper's equations, the
crossing ledger comes from the generator's ground truth, and the
geometry uses the workload's own place table.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry import Rect

from workloads import (
    PLACES,
    SEMANTIC_RULES,
    UNIVERSE,
    Subscription,
    Trace,
)

Box = Tuple[float, float, float, float]


def _box(rect: Rect) -> Box:
    return (rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def _area(b: Box) -> float:
    return max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])


def _meet(a: Box, b: Box) -> Optional[Box]:
    m = (max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3]))
    return m if m[0] <= m[2] and m[1] <= m[3] else None


def sensor_pq(spec, area: float, universe_area: float) -> Tuple[float, float]:
    """(p, q) from a spec's x, y, z (Section 4.1.1): ``p = y x + z (1-x)``,
    ``q = z + y (1-x)``, with ``z`` scaled by area when the technology
    says so.  Every workload uses constant temporal degradation, so
    ``p`` holds until the reading expires."""
    x = spec.carry_probability
    y = spec.detection_probability
    z = spec.misident_probability
    if spec.z_area_scaled:
        z *= min(1.0, max(0.0, area / universe_area))
    p = y * x + z * (1.0 - x)
    q = min(1.0, z + y * (1.0 - x))
    return max(q, p), q


def posterior(region: Box, readings: Sequence[Tuple[Box, float, float]],
              universe_area: float) -> float:
    """P(object in ``region`` | readings) under a uniform prior and
    conditionally independent sensors: the derivation behind the
    paper's Eqs. (1)-(5), for any number of readings."""
    a_r = _area(region)
    prior = a_r / universe_area
    outside = universe_area - a_r
    like_in = like_out = 1.0
    for box, p, q in readings:
        inter = _meet(box, region)
        a_int = _area(inter) if inter is not None else 0.0
        f_in = min(1.0, a_int / a_r)
        f_out = min(1.0, max(0.0, (_area(box) - a_int) / outside))
        like_in *= p * f_in + q * (1.0 - f_in)
        like_out *= p * f_out + q * (1.0 - f_out)
    num = like_in * prior
    return num / (num + like_out * (1.0 - prior))


def check_posterior_arithmetic() -> List[str]:
    """The general posterior against the paper's closed forms.

    Eq. (5), one reading on rectangle B::

        P(B | s2) = aB p2 / (aB p2 + q2 (aU - aB))

    Eq. (4), reading A inside reading B, asking about B::

        P(B | s1, s2) = [p1 aA + q1 (aB - aA)] p2
                        / ([p1 aA + q1 (aB - aA)] p2 + q1 q2 (aU - aB))
    """
    errors = []
    a_u = 40000.0
    for (w, h, p2, q2) in ((10.0, 10.0, 0.95, 0.05), (30.0, 20.0, 0.75, 0.25),
                           (1.0, 1.0, 0.855, 0.095)):
        b = (5.0, 5.0, 5.0 + w, 5.0 + h)
        a_b = w * h
        eq5 = a_b * p2 / (a_b * p2 + q2 * (a_u - a_b))
        got = posterior(b, [(b, p2, q2)], a_u)
        if not math.isclose(got, eq5, rel_tol=1e-12):
            errors.append(f"posterior({b}) = {got!r}, Eq. (5) gives {eq5!r}")
    for (inner, p1, q1, p2, q2) in ((4.0, 0.9, 0.1, 0.8, 0.2),
                                    (12.0, 0.95, 0.05, 0.75, 0.25)):
        a_box = (10.0, 10.0, 10.0 + inner, 10.0 + inner)
        b_box = (0.0, 0.0, 30.0, 30.0)
        a_a, a_b = inner * inner, 900.0
        num = (p1 * a_a + q1 * (a_b - a_a)) * p2
        eq4 = num / (num + q1 * q2 * (a_u - a_b))
        got = posterior(b_box, [(a_box, p1, q1), (b_box, p2, q2)], a_u)
        if not math.isclose(got, eq4, rel_tol=1e-12):
            errors.append(f"two-reading posterior = {got!r}, Eq. (4) "
                          f"gives {eq4!r}")
    return errors


def fresh_readings(trace: Trace, upto_group: int, object_id: str,
                   now: float) -> List:
    """The object's newest reading per sensor among the first
    ``upto_group`` groups, kept when ``0 <= now - t <= ttl``."""
    latest: Dict[str, object] = {}
    for group in trace.groups[:upto_group]:
        for reading in group:
            if reading.object_id == object_id:
                latest[reading.sensor_id] = reading
    return [r for r in latest.values()
            if 0.0 <= now - r.detection_time
            <= trace.sensors[r.sensor_id].time_to_live]


def single_group(rects: List[Box]) -> Optional[Box]:
    """The common intersection when every rectangle overlaps every
    other (one overlapping group with one minimal region)."""
    common = rects[0]
    for box in rects[1:]:
        common = _meet(common, box)
        if common is None:
            return None
    return common


def check_locate(trace: Trace, upto_group: int, object_id: str,
                 now: float, estimate) -> Optional[str]:
    """A ``locate()`` answer against the benchmark's own fusion, when
    the object's fresh readings form one overlapping group."""
    fresh = fresh_readings(trace, upto_group, object_id, now)
    if not fresh:
        return f"{object_id}: no fresh reading in the trace at {now}"
    boxes = [_box(r.rect) for r in fresh]
    common = single_group(boxes)
    if common is None or _area(common) <= 0.0:
        return None  # conflicting readings: not this oracle's case
    u = _area(_box(UNIVERSE))
    weighted = [(b, *sensor_pq(trace.sensors[r.sensor_id], _area(b), u))
                for b, r in zip(boxes, fresh)]
    got_box = _box(estimate.rect)
    if any(not math.isclose(g, c, rel_tol=0, abs_tol=1e-9)
           for g, c in zip(got_box, common)):
        return (f"{object_id}: locate() rect {got_box} is not the "
                f"readings' intersection {common}")
    want = posterior(common, weighted, u)
    if not math.isclose(estimate.posterior, want, rel_tol=1e-9,
                        abs_tol=1e-12):
        return (f"{object_id}: locate() posterior {estimate.posterior!r}, "
                f"the readings give {want!r}")
    return None


def _inside(sub_region: Rect, place: str) -> bool:
    """Whether an object standing in ``place`` is inside a subscription.

    Every reading the workloads make for a place lies within 15 ft of
    its centre, wholly inside the place's subscriptions and clear of
    every other place's, so the test is the place centre."""
    x0, y0, x1, y1 = PLACES[place]
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    return (sub_region.min_x < cx < sub_region.max_x
            and sub_region.min_y < cy < sub_region.max_y)


def expected_crossings(trace: Trace, subs: Dict[str, Subscription],
                       first: int, last: int
                       ) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """Ground truth (subscription, object) -> (transition, group) pairs,
    in order, that groups ``first..last`` cause: each object's own
    trajectory, starting from where the groups before ``first`` left
    it."""
    before = final_places(trace, first)
    where: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    for index in range(first, last):
        obj = trace.groups[index][0].object_id
        where[obj].append((index, trace.places[index]))
    out: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for sid, sub in subs.items():
        for obj, path in where.items():
            was = obj in before and _inside(sub.region, before[obj])
            seq = []
            for index, place in path:
                now = _inside(sub.region, place)
                if now != was:
                    transition = "enter" if now else "leave"
                    if sub.kind in ("both", transition):
                        seq.append((transition, index))
                    was = now
            if seq:
                out[(sid, obj)] = seq
    return out


def final_places(trace: Trace, upto_group: int) -> Dict[str, str]:
    last: Dict[str, str] = {}
    for index in range(upto_group):
        last[trace.groups[index][0].object_id] = trace.places[index]
    return last


def check_ledger_live(observed: Dict[Tuple[str, str], List[str]],
                      expected: Dict[Tuple[str, str], List[Tuple[str, int]]]
                      ) -> List[str]:
    """Observed transitions per (subscription, object) equal the
    ground-truth crossings, in order."""
    errors = []
    for key in sorted(set(observed) | set(expected)):
        want = [t for t, _ in expected.get(key, [])]
        if observed.get(key, []) != want:
            errors.append(f"live events for {key}: {observed.get(key)} "
                          f"!= crossings {want}")
    return errors[:5]


def check_alternation(observed: Dict[Tuple[str, str], List[str]],
                      subs: Dict[str, Subscription],
                      final: Dict[str, str]) -> List[str]:
    """Events of every 'both' subscription alternate enter/leave per
    object, starting with enter, and end in the true final state."""
    errors = []
    for sid, sub in subs.items():
        if sub.kind != "both":
            continue
        for obj, place in final.items():
            seq = observed.get((sid, obj), [])
            for i, transition in enumerate(seq):
                if transition != ("enter" if i % 2 == 0 else "leave"):
                    errors.append(f"{sid}/{obj}: events do not alternate: "
                                  f"{seq[max(0, i - 2):i + 1]}")
                    break
            inside = bool(seq) and seq[-1] == "enter"
            if inside != _inside(sub.region, place):
                errors.append(f"{sid}/{obj}: final state inside={inside}, "
                              f"truth says {place}")
    return errors[:5]


def expected_semantic(final: Dict[str, str]) -> Dict[str, Set[Tuple]]:
    """Rule text -> standing solutions implied by the final places."""
    return {rule: {(o,) for o, p in final.items() if p == place}
            for rule, place in SEMANTIC_RULES.items()}


def check_semantic(events: Iterable[Tuple[str, str, Tuple]],
                   final: Dict[str, str]) -> List[str]:
    """Semantic events alternate per solution and leave exactly the
    solutions the final places imply."""
    standing: Dict[str, Set[Tuple]] = defaultdict(set)
    errors = []
    for rule, transition, solution in events:
        active = standing[rule]
        if transition == "enter":
            if solution in active:
                errors.append(f"{rule}: {solution} entered twice")
            active.add(solution)
        else:
            if solution not in active:
                errors.append(f"{rule}: {solution} left while not active")
            active.discard(solution)
    for rule, want in expected_semantic(final).items():
        if standing[rule] != want:
            missing = sorted(want - standing[rule])[:3]
            extra = sorted(standing[rule] - want)[:3]
            errors.append(f"{rule}: standing solutions differ from the "
                          f"final places (missing {missing}, extra {extra})")
    return errors[:5]


def check_region_answers(answers: Dict[str, List[Tuple[str, float]]],
                         reference: Dict[str, List[Tuple[str, float]]],
                         final: Dict[str, str]) -> List[str]:
    """Pruned answers equal the unpruned reference, and the objects
    answered are exactly those standing in the place."""
    errors = []
    for place in sorted(answers):
        got = [(o, float(c)) for o, c in answers[place]]
        ref = [(o, float(c)) for o, c in reference[place]]
        if got != ref:
            errors.append(f"objects_in_region({place}) {got[:3]}... != "
                          f"reference {ref[:3]}...")
        truth = sorted(o for o, p in final.items() if p == place)
        if sorted(o for o, _ in got) != truth:
            errors.append(f"objects_in_region({place}) answered "
                          f"{sorted(o for o, _ in got)}, ground truth "
                          f"{truth}")
    return errors[:5]
