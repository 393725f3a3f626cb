"""Synthetic RSSI worlds for controlled pipeline tests.

Readings follow the log-distance path loss model: received power falls off
with 10 * exponent * log10(d / d0) below the reference power at d0 = 1 m,
plus optional independent Gaussian shadowing per scan and per AP.  Readings
below the detection floor are dropped, simulating missed detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError
from .signatures import RSSI_MAX, RSSI_MIN, Position2D, RadioSignature

REFERENCE_DISTANCE_M = 1.0

# How far outside the surveyed rectangle :func:`perimeter_aps` places its APs.
PERIMETER_MARGIN_M = 1.0


@dataclass(frozen=True)
class SynthWorld:
    ap_positions: tuple[Position2D, ...]
    tx_power: float = -40.0  # dBm received at the reference distance
    path_loss_exponent: float = 2.8
    shadowing_sigma: float = 2.0  # dB
    detection_floor: float = -95.0  # dBm
    seed: int = 0

    def __post_init__(self):
        if not self.ap_positions:
            raise ConfigError("a synthetic world needs at least one AP")
        if not (math.isfinite(self.path_loss_exponent) and self.path_loss_exponent > 0):
            raise ConfigError(f"path loss exponent must be finite and positive, got {self.path_loss_exponent}")
        if not (math.isfinite(self.shadowing_sigma) and self.shadowing_sigma >= 0):
            raise ConfigError(f"shadowing sigma must be finite and >= 0, got {self.shadowing_sigma}")
        if self.seed < 0:
            raise ConfigError(f"synth seed must be non-negative, got {self.seed}")
        if not (RSSI_MIN <= self.detection_floor < self.tx_power <= RSSI_MAX):
            raise ConfigError(
                f"need {RSSI_MIN} <= detection_floor < tx_power <= {RSSI_MAX}, "
                f"got floor={self.detection_floor}, tx={self.tx_power}"
            )

    def ap_id(self, index: int) -> str:
        return f"ap{index:03d}"


def _rng_at(world: SynthWorld, position: Position2D, draw: int) -> np.random.Generator:
    # Derive the stream from (seed, position bits, draw) so each scan is an
    # independent, reproducible draw regardless of generation order.
    x_bits = int(np.float64(position.x).view(np.uint64))
    y_bits = int(np.float64(position.y).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([world.seed, x_bits, y_bits, draw]))


def expected_rssi(world: SynthWorld, ap: Position2D, position: Position2D) -> float:
    """Noise-free reading at ``position`` from an AP at ``ap``."""
    d = max(math.hypot(ap.x - position.x, ap.y - position.y), REFERENCE_DISTANCE_M)
    return world.tx_power - 10.0 * world.path_loss_exponent * math.log10(d / REFERENCE_DISTANCE_M)


def sample_signature(
    world: SynthWorld, position: Position2D, point_id: str = "", draw: int = 0
) -> RadioSignature:
    """One scan at ``position``; ``draw`` separates repeated scans."""
    rng = _rng_at(world, position, draw)
    readings = {}
    for i, ap in enumerate(world.ap_positions):
        rssi = expected_rssi(world, ap, position)
        if world.shadowing_sigma > 0:
            rssi += rng.normal(0.0, world.shadowing_sigma)
        rssi = min(max(rssi, RSSI_MIN), RSSI_MAX)
        if rssi >= world.detection_floor:
            readings[world.ap_id(i)] = rssi
    if not readings:
        raise DatasetError(
            f"no AP visible at ({position.x:g}, {position.y:g}); the world does not cover it"
        )
    if not point_id:
        point_id = f"p({position.x:g},{position.y:g})"
    return RadioSignature(point_id=point_id, reference=position, readings=readings)


@dataclass(frozen=True)
class GridSpec:
    """An ``nx`` by ``ny`` survey grid whose first node is at (0, 0)."""

    nx: int
    ny: int
    spacing: float = 2.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ConfigError(f"grid needs nx, ny >= 1 and finite positive spacing, got {self}")
        if not math.isfinite((max(self.nx, self.ny) - 1) * self.spacing):
            raise ConfigError(f"grid extent (max(nx, ny) - 1) * spacing overflows, got {self}")

    def positions(self) -> list[tuple[str, Position2D]]:
        return [
            (f"p{ix:02d}_{iy:02d}", Position2D(ix * self.spacing, iy * self.spacing))
            for iy in range(self.ny)
            for ix in range(self.nx)
        ]


def generate_grid_dataset(world: SynthWorld, grid: GridSpec, scans_per_point: int = 3) -> list[RadioSignature]:
    """Survey the grid: ``scans_per_point`` scans at every node."""
    if scans_per_point < 1:
        raise ConfigError(f"scans_per_point must be >= 1, got {scans_per_point}")
    signatures = []
    for point_id, position in grid.positions():
        for draw in range(scans_per_point):
            signatures.append(sample_signature(world, position, point_id, draw))
    return signatures


def perimeter_aps(n_aps: int, width: float, height: float) -> tuple[Position2D, ...]:
    """Place APs evenly along the rectangle perimeter expanded by :data:`PERIMETER_MARGIN_M`.

    Convenience geometry for CLI-generated worlds; coverage of the interior
    is roughly uniform for typical indoor extents.
    """
    if n_aps < 1:
        raise ConfigError(f"need at least one AP, got {n_aps}")
    w = width + 2 * PERIMETER_MARGIN_M
    h = height + 2 * PERIMETER_MARGIN_M
    perimeter = 2 * (w + h)
    if not math.isfinite(perimeter):
        raise ConfigError(f"AP perimeter around a {width:g} x {height:g} m area overflows")
    positions = []
    for i in range(n_aps):
        s = (i / n_aps) * perimeter
        if s < w:
            x, y = s, 0.0
        elif s < w + h:
            x, y = w, s - w
        elif s < 2 * w + h:
            x, y = w - (s - w - h), h
        else:
            x, y = 0.0, h - (s - 2 * w - h)
        positions.append(Position2D(x - PERIMETER_MARGIN_M, y - PERIMETER_MARGIN_M))
    return tuple(positions)
