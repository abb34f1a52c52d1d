"""The prior predictor designs the TEP combines (Section 2.1.1).

The paper's Timing Error Predictor "combines features from the Most Recent
Entry (MRE) predictor proposed by Xin et al. with the Timing Violation
Predictor (TVP) proposed by Roy et al. [12, 13]". To support ablation of
that design decision, this module provides faithful sketches of the two
constituents behind the same ``predict``/``train`` interface as
:class:`~repro.core.tep.TimingErrorPredictor`:

* :class:`MostRecentEntryPredictor` (MICRO'11 [13]) — a small
  fully-associative table of the PCs that *most recently* caused timing
  violations, LRU-replaced; predicts a violation whenever the PC is
  resident. No confidence counters, no history hashing: fast to react,
  quick to evict.
* :class:`TimingViolationPredictor` (DAC'12 [12]) — a direct-mapped,
  untagged table of 2-bit saturating counters indexed by PC bits XOR
  recent branch outcomes; predicts when the counter crosses a threshold.
  Confident and history-sensitive, but subject to aliasing.

Both record the faulty pipe stage so the violation-aware scheduler can be
driven by either. ``make_predictor`` builds any of the three designs by
name.
"""

from collections import OrderedDict

from repro.core.tep import TEPConfig, TEPPrediction, TimingErrorPredictor


class MostRecentEntryPredictor:
    """MRE: fully-associative LRU table of recent violators."""

    def __init__(self, n_entries=64):
        if n_entries <= 0:
            raise ValueError("n_entries must be positive")
        self.n_entries = n_entries
        self._table = OrderedDict()  # pc -> (stage, critical)
        self.lookups = 0
        self.hits = 0
        self.trainings = 0

    def key_for(self, pc, ghr):
        """The key used for this PC (MRE ignores branch history)."""
        del ghr
        return pc

    def predict(self, pc, ghr):
        """Predict a violation iff ``pc`` is resident (and refresh LRU)."""
        del ghr
        self.lookups += 1
        entry = self._table.get(pc)
        if entry is None:
            return None
        self.hits += 1
        self._table.move_to_end(pc)
        stage, critical = entry
        return TEPPrediction(stage, critical, pc)

    def train(self, key, stage, faulted):
        """Insert violators; evict on clean execution (MRE semantics)."""
        if key is None:
            return
        self.trainings += 1
        if faulted:
            critical = self._table.get(key, (None, False))[1]
            self._table[key] = (stage, critical)
            self._table.move_to_end(key)
            while len(self._table) > self.n_entries:
                self._table.popitem(last=False)
        else:
            # a clean run of a resident PC drops it immediately: the MRE
            # tracks *recent* violators only
            self._table.pop(key, None)

    def mark_critical(self, key, critical=True):
        """Attach the CDL verdict to a resident entry; True if one was."""
        entry = self._table.get(key)
        if entry is None:
            return False
        self._table[key] = (entry[0], critical)
        return True

    @property
    def occupancy(self):
        """Fraction of the table in use."""
        return len(self._table) / self.n_entries

    def reset(self):
        """Clear table and statistics."""
        self._table.clear()
        self.lookups = self.hits = self.trainings = 0


class TimingViolationPredictor:
    """TVP: untagged direct-mapped 2-bit counters over PC ^ history."""

    def __init__(self, n_entries=1024, history_bits=4, threshold=2):
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a positive power of two")
        if not 1 <= threshold <= 3:
            raise ValueError("threshold must be a 2-bit counter level")
        self.n_entries = n_entries
        self.history_bits = history_bits
        self.threshold = threshold
        self._mask = n_entries - 1
        self._hist_mask = (1 << history_bits) - 1 if history_bits else 0
        self._counters = [0] * n_entries
        self._stages = [None] * n_entries
        self._critical = [False] * n_entries
        self.lookups = 0
        self.hits = 0
        self.trainings = 0

    def key_for(self, pc, ghr):
        """Table index for (pc, history)."""
        return ((pc >> 2) ^ (ghr & self._hist_mask)) & self._mask

    def predict(self, pc, ghr):
        """Predict when the counter has reached the confidence threshold."""
        self.lookups += 1
        index = self.key_for(pc, ghr)
        if self._counters[index] >= self.threshold:
            self.hits += 1
            return TEPPrediction(
                self._stages[index], self._critical[index], index
            )
        return None

    def train(self, key, stage, faulted):
        """Saturating-counter update; untagged, so aliases share fate."""
        if key is None:
            return
        self.trainings += 1
        if faulted:
            self._counters[key] = min(3, self._counters[key] + 1)
            self._stages[key] = stage
        elif self._counters[key] > 0:
            self._counters[key] -= 1

    def mark_critical(self, key, critical=True):
        """Attach the CDL verdict to the indexed entry; untagged, so it
        lands whenever there is a key."""
        if key is None:
            return False
        self._critical[key] = critical
        return True

    @property
    def occupancy(self):
        """Fraction of counters above zero."""
        return sum(1 for c in self._counters if c) / self.n_entries

    def reset(self):
        """Clear counters and statistics."""
        self._counters = [0] * self.n_entries
        self._stages = [None] * self.n_entries
        self._critical = [False] * self.n_entries
        self.lookups = self.hits = self.trainings = 0


def make_predictor(kind, **kwargs):
    """Build a timing-violation predictor by name.

    ``kind``: ``"tep"`` (the paper's combined design), ``"mre"`` or
    ``"tvp"``. Keyword arguments are passed to the constructor (for
    ``"tep"``, they populate a :class:`~repro.core.tep.TEPConfig`).
    """
    kind = kind.lower()
    if kind == "tep":
        return TimingErrorPredictor(TEPConfig(**kwargs) if kwargs else None)
    if kind == "mre":
        return MostRecentEntryPredictor(**kwargs)
    if kind == "tvp":
        return TimingViolationPredictor(**kwargs)
    raise ValueError(f"unknown predictor kind {kind!r}")
