"""Typed provenance envelope for recommendation responses.

One :class:`Provenance` object describes where a response's results came
from — per pass, per action, and (for candidate-level partial reruns) per
vis.  It is the single source of truth for freshness metadata, and
:meth:`Provenance.to_payload` is its only wire rendering: every
recommendations response carries it under ``provenance``.

Because the envelope is built where the response is built (inside the
worker in shard mode) and crosses the shard RPC inside the pre-serialized
``payload_json`` passthrough, the wire bytes are identical whether a
response was produced in-process or behind the supervisor — the property
the golden wire-shape test pins.

Origin vocabulary
-----------------
``precompute``
    Computed by a background pass at this exact version.
``foreground``
    Computed synchronously on the read path.
``carried``
    Not recomputed: the previous result was carried forward because the
    mutation delta missed its inputs (bit-identical by construction).
``mixed``
    Heterogeneous children — a pass combining recomputed and carried
    actions, or an action combining recomputed and carried candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["ActionProvenance", "Provenance"]


@dataclass(frozen=True)
class ActionProvenance:
    """Provenance of one action's payload within a response.

    ``vis`` refines a ``mixed`` action to per-vis granularity: a map from
    each displayed candidate's ``key`` (see
    :func:`~repro.vis.spec.candidate_key`, echoed in the spec payload) to
    its own origin.  None means every vis shares ``origin``.
    """

    origin: str
    vis: "dict[str, str] | None" = None

    def to_payload(self) -> dict[str, Any]:
        return {"origin": self.origin, "vis": self.vis}


@dataclass(frozen=True)
class Provenance:
    """Where one recommendation response's results came from."""

    origin: str
    computed_at: "float | None"
    data_version: int
    intent_epoch: int
    actions: "dict[str, ActionProvenance]"

    @staticmethod
    def build(
        version: "tuple[int, int]",
        payloads: Mapping[str, Any],
        origin: str,
        computed_at: "float | None" = None,
        origins: "Mapping[str, str] | None" = None,
        vis_origins: "Mapping[str, dict[str, str]] | None" = None,
    ) -> "Provenance":
        """Assemble the envelope from the read path's raw ingredients."""
        actions = {
            name: ActionProvenance(
                origins.get(name, origin) if origins else origin,
                vis_origins.get(name) if vis_origins else None,
            )
            for name in payloads
        }
        return Provenance(
            origin=origin,
            computed_at=computed_at,
            data_version=version[0],
            intent_epoch=version[1],
            actions=actions,
        )

    def to_payload(self) -> dict[str, Any]:
        """The wire shape (pinned by the golden wire-shape test)."""
        return {
            "origin": self.origin,
            "computed_at": self.computed_at,
            "data_version": self.data_version,
            "intent_epoch": self.intent_epoch,
            "actions": {
                name: ap.to_payload() for name, ap in self.actions.items()
            },
        }
