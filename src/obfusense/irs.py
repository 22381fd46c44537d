"""Binary-phase surface configurations and the randomized obfuscation scheduler.

The scheduler is a two-state machine: a RAND step flips a small random subset
of elements, a FLIP step inverts the whole surface, and each tick is skipped
with a hold probability that randomizes the timing. One tick corresponds to
one configuration write at the surface update rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

RAND = "RAND"
FLIP = "FLIP"


@dataclass
class IrsConfig:
    """M binary element states."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("config bits must be a 1-D vector")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise ValueError("config bits must be 0 or 1")

    def __len__(self):
        return self.bits.shape[0]


@dataclass(kw_only=True)
class SchedulerParams:
    """The three scheduler settings; the one place their defaults and ranges live.

    progression_rate is the share of elements a RAND step flips, hold_prob the
    chance that a tick leaves the surface unchanged, and update_rate the ticks
    (configuration writes) per second.
    """

    progression_rate: float = 0.05
    hold_prob: float = 0.6
    update_rate: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.progression_rate <= 0.5):
            raise ValueError(f"progression_rate must be in (0, 0.5], got {self.progression_rate}")
        if not (0.0 <= self.hold_prob < 1.0):
            raise ValueError(f"hold_prob must be in [0, 1), got {self.hold_prob}")
        if not (math.isfinite(self.update_rate) and self.update_rate > 0):
            raise ValueError(f"update_rate must be finite and > 0, got {self.update_rate}")

    def settings(self) -> dict:
        """The scheduler settings as keywords, for functions taking **scheduler."""
        return {f.name: getattr(self, f.name) for f in fields(SchedulerParams)}


@dataclass
class IrsAlgState(SchedulerParams):
    """Scheduler state: current configuration plus the pending step kind."""

    cfg: IrsConfig
    next_state: str = RAND
    rng: np.random.Generator = None

    def __post_init__(self):
        super().__post_init__()
        if math.ceil(self.progression_rate * len(self.cfg)) < 1:
            raise ValueError("progression rate selects no elements")
        if self.next_state not in (RAND, FLIP):
            raise ValueError(f"unknown state {self.next_state!r}")
        if self.rng is None:
            self.rng = np.random.default_rng()


def initial_state(m: int, rng: np.random.Generator, **scheduler) -> IrsAlgState:
    """Fresh scheduler state with a uniformly random starting configuration."""
    bits = rng.integers(0, 2, size=m, dtype=np.uint8)
    return IrsAlgState(cfg=IrsConfig(bits), next_state=RAND, rng=rng, **scheduler)


def map_config(cfg: IrsConfig) -> np.ndarray:
    """Vector of per-element reflection coefficients in {-1, +1}."""
    return cfg.bits.astype(float) * 2.0 - 1.0


def step(state: IrsAlgState, disable_inversion: bool = False):
    """Advance one tick; returns (new_state, changed).

    With probability hold_prob nothing happens (the configuration is re-held
    for one tick). Otherwise the pending step executes: RAND flips
    ceil(progression_rate * M) distinct random elements, FLIP inverts all.
    disable_inversion turns the FLIP execution into a no-op (the state machine
    still alternates).
    """
    if state.rng.random() < state.hold_prob:
        return state, False
    bits = state.cfg.bits.copy()
    m = bits.shape[0]
    if state.next_state == RAND:
        count = math.ceil(state.progression_rate * m)
        idx = state.rng.choice(m, size=count, replace=False)
        bits[idx] ^= 1
        nxt = FLIP
    else:
        if not disable_inversion:
            bits ^= 1
        nxt = RAND
    return replace(state, cfg=IrsConfig(bits), next_state=nxt), True
