"""Criticality Detection Logic (CDL), Section 3.5.2.

Hardware cannot see the program's dataflow graph, so the paper estimates
instruction criticality by a low-complexity proxy: when an instruction
broadcasts its result tag, count the tag matches in the reservation station
(the number of dependents waiting in the issue queue), feed the count
through an encoder and compare it against a predefined Criticality
Threshold (CT). Instructions meeting the threshold are recorded as critical
in the TEP. The paper finds CT = 8 works best.
"""

DEFAULT_CRITICALITY_THRESHOLD = 8


class CriticalityDetector:
    """Counts broadcast tag matches and stores criticality in the TEP."""

    def __init__(self, tep, threshold=DEFAULT_CRITICALITY_THRESHOLD):
        if threshold <= 0:
            raise ValueError("criticality threshold must be positive")
        self.tep = tep
        self.threshold = threshold
        self.observations = 0
        #: broadcasts that met the threshold
        self.critical_marks = 0
        #: of those, marks that landed on the instruction's TEP entry
        self.landed_marks = 0

    def observe_broadcast(self, inst, n_dependents):
        """Process one tag broadcast with ``n_dependents`` IQ matches.

        Marks the instruction's TEP entry critical when the dependent count
        reaches the threshold. The bit is sticky: the paper stores the
        criticality with the predictor entry once observed, and the entry
        is only cleared on replacement.
        """
        self.observations += 1
        if n_dependents >= self.threshold:
            self.critical_marks += 1
            if inst.tep_key is not None and self.tep.mark_critical(
                inst.tep_key
            ):
                self.landed_marks += 1
            return True
        return False

    @property
    def mark_rate(self):
        """Fraction of observed broadcasts that met the threshold."""
        if not self.observations:
            return 0.0
        return self.critical_marks / self.observations
