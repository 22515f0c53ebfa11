"""The PIM→PSM transformation engine.

``Transformation`` owns an ordered rule list and produces a
:class:`~repro.mda.rules.TransformationResult`:

1. the PIM (plus its profiles) is cloned through XMI — ids stable,
   structure complete;
2. rules run in priority order over the clone;
3. the result carries the full trace, per-rule application counts and a
   completeness measure (experiment D6 asserts completeness == 100%).

Caching: :meth:`Transformation.transform_cached` serves the result
from the active :mod:`repro.store`, keyed by the transformation's
identity plus the content fingerprints of the PIM and its profiles
(:func:`repro.metamodel.model.model_fingerprint`).  Any element
mutation changes the fingerprint and misses naturally — no explicit
invalidation API needed.  Without an active store it is
:meth:`~Transformation.transform`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import TransformError
from ..metamodel.model import Model, model_fingerprint
from ..profiles.core import Profile
from ..xmi.reader import read_model
from ..xmi.writer import write_model
from .platform import Platform
from .rules import (
    ModelRule,
    TraceLink,
    TransformationContext,
    TransformationResult,
    TransformationRule,
)


def clone_model(model: Model,
                profiles: Sequence[Profile] = ()) -> Model:
    """Deep-copy a model (with profile applications) via XMI round-trip."""
    document = read_model(write_model(model, profiles))
    if document.model is None:
        raise TransformError("clone round-trip lost the model root")
    return document.model


class Transformation:
    """An ordered, named PIM→PSM mapping."""

    def __init__(self, name: str, platform: Platform,
                 rules: Sequence[TransformationRule] = ()):
        self.name = name
        self.platform = platform
        self.rules: List[TransformationRule] = sorted(
            rules, key=lambda rule: rule.priority)

    def add_rule(self, rule: TransformationRule) -> "Transformation":
        """Insert a rule (kept sorted by priority; chainable)."""
        if any(existing.name == rule.name for existing in self.rules):
            raise TransformError(
                f"transformation {self.name!r} already has rule "
                f"{rule.name!r}")
        self.rules.append(rule)
        self.rules.sort(key=lambda entry: entry.priority)
        return self

    def transform(self, pim: Model,
                  profiles: Sequence[Profile] = (),
                  profile: Optional[Profile] = None
                  ) -> TransformationResult:
        """Run the mapping; the PIM is never mutated."""
        cloned_document = read_model(write_model(pim, profiles))
        psm = cloned_document.model
        if psm is None:
            raise TransformError("clone round-trip lost the model root")
        cloned_profiles = cloned_document.profiles
        active_profile = profile
        if active_profile is None and cloned_profiles:
            active_profile = cloned_profiles[0]

        context = TransformationContext(pim, psm, self.platform,
                                        active_profile)
        applications: Dict[str, int] = {}
        for rule in self.rules:
            touched = 0
            if isinstance(rule, ModelRule):
                rule.apply(psm, context)
                touched += 1
            else:
                # snapshot: rules may add elements while we iterate
                elements = [psm] + list(psm.all_owned())
                for element in elements:
                    if rule.applies_to(element):
                        rule.apply(element, context)
                        touched += 1
            if touched:
                applications[rule.name] = touched

        psm.name = f"{pim.name}_{self.platform.name}"
        return TransformationResult(
            pim=pim, psm=psm, platform=self.platform,
            trace=context.trace, applications=applications,
            psm_profiles=tuple(cloned_profiles))

    def cache_key(self, pim: Model,
                  profiles: Sequence[Profile] = ()) -> Tuple:
        """The content-addressed identity of transforming ``pim``."""
        return (
            self.name,
            self.platform.name,
            tuple(rule.name for rule in self.rules),
            model_fingerprint(pim),
            tuple(model_fingerprint(profile) for profile in profiles),
        )

    def transform_cached(self, pim: Model,
                         profiles: Sequence[Profile] = (),
                         profile: Optional[Profile] = None
                         ) -> TransformationResult:
        """Run :meth:`transform`, persisting/serving the PSM artifact.

        With an active artifact store the ``transform`` stage becomes a
        build-graph node: its inputs are the PIM fingerprint plus every
        profile fingerprint (the model slices the stage reads), its
        artifact is the PSM serialized as XMI together with the rule
        trace.  A warm process deserializes instead of re-running the
        rule sweep; without a store this is exactly :meth:`transform`.
        """
        from ..store import get_active_store
        store = get_active_store()
        if store is None:
            return self.transform(pim, profiles, profile)

        key = self.cache_key(pim, profiles)
        inputs = [key[3], *key[4]]  # model fp + profile fps
        store_key = store.make_key("transform", *map(str, key))
        label = f"{self.name}->{self.platform.name}"
        payload = store.load("transform", store_key, inputs=inputs,
                             label=label)
        if payload is not None:
            result = self._result_from_payload(payload, pim)
            if result is not None:
                return result
        result = self.transform(pim, profiles, profile)
        store.save("transform", store_key,
                   self._result_to_payload(result), inputs=inputs,
                   meta={"transformation": self.name,
                         "platform": self.platform.name,
                         "pim": pim.name},
                   label=label)
        return result

    def _result_to_payload(self,
                           result: TransformationResult) -> Dict[str, Any]:
        return {
            "transform_version": 1,
            "psm_xmi": write_model(result.psm, result.psm_profiles),
            "applications": dict(result.applications),
            "trace": [[link.rule, link.source_id, link.target_id,
                       link.note] for link in result.trace],
        }

    def _result_from_payload(self, payload: Any, pim: Model
                             ) -> Optional[TransformationResult]:
        """Rebuild a result from a stored artifact; None when off-shape."""
        if not isinstance(payload, dict) \
                or payload.get("transform_version") != 1:
            return None
        try:
            document = read_model(payload["psm_xmi"])
            psm = document.model
            if psm is None:
                return None
            trace = [TraceLink(str(rule), str(source), str(target),
                               str(note))
                     for rule, source, target, note in payload["trace"]]
            applications = {str(name): int(count) for name, count
                            in payload["applications"].items()}
        except Exception:
            return None
        return TransformationResult(
            pim=pim, psm=psm, platform=self.platform, trace=trace,
            applications=applications,
            psm_profiles=tuple(document.profiles))

    def __repr__(self) -> str:
        return (f"<Transformation {self.name!r} -> {self.platform.name} "
                f"({len(self.rules)} rules)>")
