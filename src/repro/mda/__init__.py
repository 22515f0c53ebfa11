"""MDA: PIM→PSM transformation (subsystem S8).

Platforms, the traced rule framework, the engine (XMI-backed cloning)
and the built-in software/hardware mappings.
"""

from .platform import (
    HARDWARE_PLATFORM,
    Platform,
    PlatformKind,
    SOFTWARE_PLATFORM,
)
from .rules import (
    ModelRule,
    TraceLink,
    TransformationContext,
    TransformationResult,
    TransformationRule,
)
from .engine import Transformation, clone_model
from .mappings import hardware_transformation, software_transformation

__all__ = [
    "HARDWARE_PLATFORM", "Platform", "PlatformKind", "SOFTWARE_PLATFORM",
    "ModelRule", "TraceLink", "TransformationContext",
    "TransformationResult", "TransformationRule",
    "Transformation", "clone_model",
    "hardware_transformation", "software_transformation",
]
