"""Desk-scale simulator of passive Wi-Fi motion sensing and channel obfuscation
with a randomized binary-phase reflecting surface."""

__version__ = "0.1.0"
