"""Comparative schemes of the evaluation (Section 5).

* **FAULT_FREE** — the baseline machine at nominal voltage; no faults.
* **RAZOR** — no prediction; every timing violation triggers an
  instruction replay [3, 15].
* **EP** (Error Padding) — the stall-based baseline [12, 13]: a predicted
  violation stalls the whole pipeline for one cycle when the faulty
  instruction occupies its faulty stage; unpredicted violations replay.
* **ABS / FFS / CDS** — the paper's violation-aware scheduling schemes:
  VTE handling (per-instruction extra cycle + slot freeze) with the
  respective selection policy; unpredicted violations replay.
"""

import enum

from repro.core.policies import (
    AgeBasedSelection,
    CriticalityDrivenSelection,
    FaultyFirstSelection,
)


class SchemeKind(enum.Enum):
    """Identifier of a fault-handling scheme."""

    FAULT_FREE = "fault_free"
    RAZOR = "razor"
    EP = "ep"
    ABS = "abs"
    FFS = "ffs"
    CDS = "cds"


class Scheme:
    """A fault-tolerance scheme: prediction use, handling style, policy."""

    def __init__(self, kind, policy, uses_tep, uses_vte, uses_ep_stall,
                 detects_criticality=False):
        self.kind = kind
        self.policy = policy
        self.uses_tep = uses_tep
        self.uses_vte = uses_vte
        self.uses_ep_stall = uses_ep_stall
        self.detects_criticality = detects_criticality

    @property
    def name(self):
        """Scheme name as used in the paper's figures."""
        return self.kind.name

    @property
    def tolerates_predicted_faults(self):
        """True when a correctly predicted violation avoids a replay."""
        return self.uses_vte or self.uses_ep_stall

    def __repr__(self):
        return f"Scheme({self.kind.name}, policy={self.policy.name})"


def scheme_kind(kind):
    """The :class:`SchemeKind` of ``kind`` (enum or its value/name)."""
    if isinstance(kind, str):
        try:
            return SchemeKind[kind.upper()]
        except KeyError:
            return SchemeKind(kind.lower())
    return kind


def make_scheme(kind):
    """Construct a :class:`Scheme` for ``kind`` (enum or its value/name)."""
    kind = scheme_kind(kind)
    if kind is SchemeKind.FAULT_FREE:
        return Scheme(kind, AgeBasedSelection(), False, False, False)
    if kind is SchemeKind.RAZOR:
        return Scheme(kind, AgeBasedSelection(), False, False, False)
    if kind is SchemeKind.EP:
        # the paper uses age-based selection for the EP baseline (§4.2)
        return Scheme(kind, AgeBasedSelection(), True, False, True)
    if kind is SchemeKind.ABS:
        return Scheme(kind, AgeBasedSelection(), True, True, False)
    if kind is SchemeKind.FFS:
        return Scheme(kind, FaultyFirstSelection(), True, True, False)
    if kind is SchemeKind.CDS:
        return Scheme(
            kind, CriticalityDrivenSelection(), True, True, False,
            detects_criticality=True,
        )
    raise ValueError(f"unknown scheme kind: {kind!r}")


#: The schemes of Figures 4/5/8/9, in presentation order.
PROPOSED_SCHEMES = (SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS)
