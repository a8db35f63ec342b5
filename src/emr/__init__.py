"""emr: agent-aware mixed-reality fusion pipeline, desk-scale and testable.

Subpackages cover the full staged flow: raster primitives and codecs,
QoE/QoS-managed re-encoding, a confidential session tunnel over a simulated
network, adaptive motion keying, recursive alpha matting, an identity table
with incremental centroids, and scene fusion, orchestrated by a reproducible
CLI pipeline.
"""

__version__ = "0.1.0"

from .raster import AlphaMatte, Frame, Trimap  # noqa: F401
