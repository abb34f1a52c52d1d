"""Timing Error Predictor (TEP), Section 2.1.1.

The TEP combines the Most-Recent-Entry predictor of Xin & Joseph [13] with
the Timing Violation Predictor of Roy & Chakraborty [12]:

* the table is indexed by a hash of instruction PC bits and recent branch
  outcomes (the global history register),
* each entry holds a 2-byte tag derived from the PC, a 2-bit saturating
  counter (non-zero means "predict a violation"), the faulty pipe stage the
  violation was observed in, and the criticality bit the CDL stores
  (Section 3.5.2).

Predictions are only armed when the voltage/thermal sensors report
conditions favourable to timing errors — the pipeline gates lookups on
:meth:`repro.faults.sensors.VoltageSensor.favorable`.
"""

from repro.record import Record


class TEPConfig(Record):
    """Geometry of the predictor table."""

    FIELDS = ("n_entries", "tag_bits", "counter_bits", "history_bits")

    def __init__(self, n_entries=1024, tag_bits=16, counter_bits=2, history_bits=0):
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("n_entries must be a positive power of two")
        self.n_entries = n_entries
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        self.history_bits = history_bits
        self.counter_max = (1 << counter_bits) - 1

    @property
    def storage_bits(self):
        """Total predictor storage in bits (tag+counter+stage+critical)."""
        # 4-bit stage field + 1 criticality bit per entry (Section 3.2.1)
        per_entry = self.tag_bits + self.counter_bits + 4 + 1
        return self.n_entries * per_entry


class TEPPrediction:
    """Outcome of a TEP lookup that predicts a violation."""

    __slots__ = ("stage", "critical", "key")

    def __init__(self, stage, critical, key):
        self.stage = stage
        self.critical = critical
        self.key = key

    def __repr__(self):
        return f"TEPPrediction(stage={self.stage}, critical={self.critical})"


class _Entry:
    __slots__ = ("tag", "counter", "stage", "critical")

    def __init__(self):
        self.tag = -1
        self.counter = 0
        self.stage = None
        self.critical = False


class TimingErrorPredictor:
    """PC+history indexed timing-violation predictor."""

    def __init__(self, config=None):
        self.config = config or TEPConfig()
        self._entries = [_Entry() for _ in range(self.config.n_entries)]
        self._index_mask = self.config.n_entries - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._hist_mask = (1 << self.config.history_bits) - 1
        # (pc, masked history) -> (index, tag): the key is a pure hash of
        # its inputs and each static PC recurs thousands of times per run,
        # so memoizing avoids recomputing (and reallocating) the tuple
        self._key_cache = {}
        self.lookups = 0
        self.hits = 0
        self.trainings = 0

    def _key(self, pc, ghr):
        hist = ghr & self._hist_mask
        if hist:
            # history-indexed configs vary per lookup; compute directly
            word = pc >> 2
            return ((word ^ hist) & self._index_mask,
                    (word >> 10) & self._tag_mask)
        key = self._key_cache.get(pc)
        if key is None:
            word = pc >> 2
            key = (word & self._index_mask, (word >> 10) & self._tag_mask)
            self._key_cache[pc] = key
        return key

    # ------------------------------------------------------------------
    def predict(self, pc, ghr):
        """Look up ``pc`` under branch history ``ghr``.

        Returns a :class:`TEPPrediction` when an entry with a matching tag
        has a non-zero counter, else ``None``. The returned ``key`` must be
        kept with the instruction and passed back to :meth:`train` so
        training hits the same entry regardless of later history shifts.
        """
        self.lookups += 1
        key = self._key(pc, ghr)
        entry = self._entries[key[0]]
        if entry.tag == key[1] and entry.counter > 0:
            self.hits += 1
            return TEPPrediction(entry.stage, entry.critical, key)
        return None

    def key_for(self, pc, ghr):
        """The (index, tag) key a lookup of ``pc``/``ghr`` would use."""
        return self._key(pc, ghr)

    def predict_or_key(self, pc, ghr):
        """Single-probe fetch path: returns ``(prediction, key)``.

        Equivalent to :meth:`predict` followed by :meth:`key_for` but with
        one table probe and one key computation.
        """
        self.lookups += 1
        key = self._key(pc, ghr)
        entry = self._entries[key[0]]
        if entry.tag == key[1] and entry.counter > 0:
            self.hits += 1
            return TEPPrediction(entry.stage, entry.critical, key), key
        return None, key

    def train(self, key, stage, faulted):
        """Update the entry at ``key`` with an observed outcome.

        A detected violation allocates/reinforces the entry and records the
        faulty stage; a clean execution of a tracked instruction decays the
        counter (2-bit saturating behaviour).
        """
        if key is None:
            return
        self.trainings += 1
        index, tag = key
        entry = self._entries[index]
        if faulted:
            if entry.tag == tag:
                entry.counter = min(self.config.counter_max, entry.counter + 1)
                entry.stage = stage
            else:
                entry.tag = tag
                entry.counter = 1
                entry.stage = stage
                entry.critical = False
        elif entry.tag == tag and entry.counter > 0:
            entry.counter -= 1

    def mark_critical(self, key, critical=True):
        """Store the CDL's criticality verdict with the entry (§3.5.2)."""
        if key is None:
            return
        index, tag = key
        entry = self._entries[index]
        if entry.tag == tag:
            entry.critical = critical

    # ------------------------------------------------------------------
    @property
    def occupancy(self):
        """Fraction of table entries currently allocated."""
        used = sum(1 for e in self._entries if e.tag >= 0)
        return used / len(self._entries)

    def reset(self):
        """Clear the table and statistics."""
        for entry in self._entries:
            entry.tag = -1
            entry.counter = 0
            entry.stage = None
            entry.critical = False
        self.lookups = self.hits = self.trainings = 0
