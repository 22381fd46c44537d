"""Binary-phase surface configurations and the randomized obfuscation scheduler.

The scheduler is a two-state machine: a RAND step flips a small random subset
of elements, a FLIP step inverts the whole surface, and each tick is skipped
with a hold probability that randomizes the timing. One tick corresponds to
one configuration write at the surface update rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

RAND = "RAND"
FLIP = "FLIP"


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

    def check_update_rate(self, sample_rate: float) -> None:
        """Raise ValueError above 100 scheduler ticks per frame at sample_rate.

        The scheduler pass steps once per tick in Python, so its time grows with
        the ticks per frame; a finite but huge rate would otherwise run for days.
        """
        if self.update_rate > 100 * sample_rate:
            raise ValueError(f"update_rate must be at most 100 ticks per frame "
                             f"({100 * sample_rate:g} at sample_rate {sample_rate:g}), "
                             f"got {self.update_rate:g}")

    def settings(self) -> dict:
        """The scheduler settings as keywords, for functions taking **scheduler."""
        return {f.name: getattr(self, f.name) for f in fields(SchedulerParams)}


@dataclass(kw_only=True)
class IrsAlgState(SchedulerParams):
    """Scheduler state, stepped in place: M element bits plus the pending step kind.

    bits is copied and checked once here, so step() never writes into the
    caller's array. rng is required: it is the surface stream of the session.
    """

    bits: np.ndarray
    rng: np.random.Generator
    next_state: str = RAND

    def __post_init__(self):
        super().__post_init__()
        self.bits = np.array(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("config bits must be a 1-D vector")
        if not np.all(self.bits <= 1):
            raise ValueError("config bits must be 0 or 1")
        if math.ceil(self.progression_rate * self.bits.shape[0]) < 1:
            raise ValueError("progression rate selects no elements")
        if self.next_state not in (RAND, FLIP):
            raise ValueError(f"unknown state {self.next_state!r}")


def coefficients(bits: np.ndarray) -> np.ndarray:
    """Per-element reflection coefficients, int8: bit 0 -> -1, bit 1 -> +1."""
    return np.asarray(bits, dtype=np.int8) * 2 - 1


def step(state: IrsAlgState, disable_inversion: bool = False) -> bool:
    """Advance one tick in place; returns whether the configuration changed.

    With probability hold_prob nothing happens (the configuration is re-held
    for one tick). Otherwise the pending step executes: RAND flips
    ceil(progression_rate * M) distinct random elements, FLIP inverts all.
    disable_inversion turns the FLIP execution into a no-op (the state machine
    still alternates).
    """
    if state.rng.random() < state.hold_prob:
        return False
    if state.next_state == RAND:
        m = state.bits.shape[0]
        count = math.ceil(state.progression_rate * m)
        state.bits[state.rng.choice(m, count, False)] ^= 1  # count distinct elements
        state.next_state = FLIP
    else:
        if not disable_inversion:
            state.bits ^= 1
        state.next_state = RAND
    return True
