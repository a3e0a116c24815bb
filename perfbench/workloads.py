"""Seeded inputs for the benchmark workloads.

Every input the program sees is generated here from ``--seed``: the
readings (who, which sensor, which rectangle, which detection time),
the pull queries, and the ground truth the oracles check against (each
object's true place per reading).  The deployments, subscriptions and
semantic rules are fixed per workload.

Virtual time: a *round* gives every tracked object one sighting (or
one burst of sightings on ``dense-fusion``) and advances the detection
clock by one second, spread evenly over the round in submission order,
so the virtual clock is the detection time of the last reading sent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import ConstantTDF, SensorSpec
from repro.geometry import Rect
from repro.pipeline import PipelineReading
from repro.sensors.ubisense import ubisense_spec

PREFIX = "SC/3"
# The places objects move between: every room of siebel_floor() plus
# the corridor, with their canonical bounds (the world model's own
# numbers; the oracles use them as ground truth geometry).
PLACES: Dict[str, Tuple[float, float, float, float]] = {
    "SC/3/3102": (20.0, 0.0, 80.0, 40.0),
    "SC/3/3104": (80.0, 0.0, 140.0, 40.0),
    "SC/3/3105": (140.0, 0.0, 200.0, 40.0),
    "SC/3/NetLab": (200.0, 0.0, 260.0, 40.0),
    "SC/3/HCILab": (260.0, 0.0, 320.0, 40.0),
    "SC/3/3110": (320.0, 0.0, 380.0, 40.0),
    "SC/3/3216": (20.0, 60.0, 80.0, 100.0),
    "SC/3/3218": (80.0, 60.0, 140.0, 100.0),
    "SC/3/ConferenceRoom": (140.0, 60.0, 240.0, 100.0),
    "SC/3/3224": (240.0, 60.0, 300.0, 100.0),
    "SC/3/3226": (300.0, 60.0, 380.0, 100.0),
    "SC/3/Corridor": (0.0, 40.0, 400.0, 60.0),
}
PLACE_NAMES = sorted(PLACES)
UNIVERSE = Rect(0.0, 0.0, 400.0, 100.0)

SUBSCRIPTIONS = 200
SUBSCRIPTION_THRESHOLD = 0.2

# Rule -> the place whose occupants are its standing solutions.  A
# pairwise rule (colocated_at) is left out: the in-process service can
# deliver its enter and leave for one pair out of order (see FOUND in
# CHANGES.md), so no ledger of it could be checked on every seed.
SEMANTIC_RULES = {
    "occupied(P) :- located_within(P, 'SC/3/3105')": "SC/3/3105",
    "netlab(P) :- located_within(P, 'SC/3/NetLab')": "SC/3/NetLab",
    "walking(P) :- located_within(P, 'SC/3/Corridor')": "SC/3/Corridor",
}


def center(place: str) -> Tuple[float, float]:
    x0, y0, x1, y1 = PLACES[place]
    return (x0 + x1) / 2.0, (y0 + y1) / 2.0


@dataclass(frozen=True)
class Subscription:
    """One Fig. 9-shaped region subscription: a place's rectangle,
    shifted 0-2 ft south (the figure's ``translated(0, -(i % 3))``),
    so many subscriptions watch each place."""

    region: Rect
    kind: str


def subscriptions() -> List[Subscription]:
    out = []
    for i in range(SUBSCRIPTIONS):
        place = PLACE_NAMES[i % len(PLACE_NAMES)]
        x0, y0, x1, y1 = PLACES[place]
        shift = float(i % 3)
        kind = "both" if i % 4 == 0 else "enter"
        out.append(Subscription(Rect(x0, y0 - shift, x1, y1 - shift),
                                kind))
    return out


@dataclass
class Trace:
    """A workload's whole input, generated before the clock starts.

    ``groups`` are the units the open loop sends at one due time (one
    reading on ``floor-ingest``, an object's 8-sensor burst on
    ``dense-fusion``), one per object per round; ``places[i]`` is the
    true place of the object of group ``i``.  ``sensors`` maps sensor
    id to its spec.
    """

    sensors: Dict[str, SensorSpec]
    groups: List[List[PipelineReading]]
    places: List[str]
    objects: List[str]

    @property
    def readings(self) -> int:
        return sum(len(g) for g in self.groups)


def _moves(rng: random.Random, objects: int, rounds: int,
           dwell: Tuple[int, int]) -> List[List[str]]:
    """Per round, each object's place: dwell a seeded number of rounds,
    then move to a different place."""
    place = [rng.choice(PLACE_NAMES) for _ in range(objects)]
    left = [rng.randint(*dwell) for _ in range(objects)]
    out = []
    for _ in range(rounds):
        out.append(list(place))
        for o in range(objects):
            left[o] -= 1
            if left[o] == 0:
                place[o] = rng.choice(
                    [p for p in PLACE_NAMES if p != place[o]])
                left[o] = rng.randint(*dwell)
    return out


def floor_trace(seed: int, rounds: int) -> Trace:
    """64 people, one Ubisense-style sensor at a fixed spot per place.

    A sighting is the 1 ft square (6-inch radius) around the spot of
    the place the person is in; every person is sighted once a round.
    """
    rng = random.Random(seed)
    people = [f"person-{i:02d}" for i in range(64)]
    spec = ubisense_spec()
    sensors = {f"ubi-{place.rsplit('/', 1)[1]}": spec
               for place in PLACE_NAMES}
    spot = {}
    for place in PLACE_NAMES:
        x, y = center(place)
        spot[place] = Rect(x - 0.5, y - 0.5, x + 0.5, y + 0.5)
    moves = _moves(rng, len(people), rounds, (2, 6))
    groups: List[List[PipelineReading]] = []
    places: List[str] = []
    for k, where in enumerate(moves):
        order = list(range(len(people)))
        rng.shuffle(order)
        for position, o in enumerate(order):
            place = where[o]
            groups.append([PipelineReading(
                sensor_id=f"ubi-{place.rsplit('/', 1)[1]}",
                glob_prefix=PREFIX, sensor_type="Ubisense",
                object_id=people[o], rect=spot[place],
                detection_time=k + position / len(people),
                detection_radius=0.5)])
            places.append(place)
    return Trace(sensors, groups, places, people)


# Eight technologies of differing quality see every dense object:
# (x, y, z0, area-scaled z).
_DENSE_SPECS = [
    (0.90, 0.95, 0.05, True), (0.85, 0.90, 0.10, True),
    (0.95, 0.80, 0.10, False), (0.80, 0.85, 0.05, False),
    (0.90, 0.75, 0.15, True), (0.99, 0.70, 0.20, False),
    (0.85, 0.95, 0.02, True), (0.75, 0.90, 0.08, False),
]


def dense_trace(seed: int, rounds: int) -> Trace:
    """32 objects, each sighted every round by 8 overlapping sensors.

    Each sensor's rectangle is a box around the object's true point
    with seeded side extents of 1-5 ft, redrawn every round, so every
    sighting set is new (fusion-cache misses) and the rectangles cross
    (large lattices).  All eight contain the true point, so their
    common intersection lies inside the object's place.
    """
    rng = random.Random(seed)
    objects = [f"dense-{i:02d}" for i in range(32)]
    sensors = {}
    for j, (x, y, z, scaled) in enumerate(_DENSE_SPECS):
        sensors[f"tech-{j}"] = SensorSpec(
            sensor_type=f"tech-{j}", carry_probability=x,
            detection_probability=y, misident_probability=z,
            z_area_scaled=scaled, time_to_live=3.0, tdf=ConstantTDF())
    offset = [rng.uniform(-10.0, 10.0) for _ in objects]
    moves = _moves(rng, len(objects), rounds, (1, 3))
    groups: List[List[PipelineReading]] = []
    places: List[str] = []
    for k, where in enumerate(moves):
        order = list(range(len(objects)))
        rng.shuffle(order)
        for position, o in enumerate(order):
            place = where[o]
            cx, cy = center(place)
            px = cx + offset[o]
            burst = []
            for j in range(len(_DENSE_SPECS)):
                rect = Rect(px - rng.uniform(1.0, 5.0),
                            cy - rng.uniform(1.0, 5.0),
                            px + rng.uniform(1.0, 5.0),
                            cy + rng.uniform(1.0, 5.0))
                burst.append(PipelineReading(
                    sensor_id=f"tech-{j}", glob_prefix=PREFIX,
                    sensor_type=f"tech-{j}", object_id=objects[o],
                    rect=rect,
                    detection_time=k + position / len(objects)))
            groups.append(burst)
            places.append(place)
    return Trace(sensors, groups, places, objects)
