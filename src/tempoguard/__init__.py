"""Interval-aware anomaly detection for smart-home device event logs.

Learns each daily activity as a sequence of device events plus the mean
time interval between adjacent events, then flags test sequences whose
completeness or inter-event timing falls outside a calibrated score band.
"""

__version__ = "0.1.0"
