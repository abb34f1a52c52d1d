"""Synthetic program structure: basic blocks and control-flow graphs.

A :class:`Program` is a set of :class:`BasicBlock` objects plus edge
probabilities. Dynamic execution is a probabilistic walk over the CFG; each
visit to a block emits dynamic instances of its static instructions. This
gives the trace the properties the paper's predictors rely on: a bounded
static-PC footprint, heavy PC recurrence through loops, and correlated
branch behaviour.
"""

from functools import cached_property


class BasicBlock:
    """A straight-line sequence of static instructions ending in a branch.

    Parameters
    ----------
    index:
        Block index within the program.
    insts:
        Static instructions in program order. The final instruction is the
        block terminator when ``successors`` has more than one entry.
    successors:
        List of ``(block_index, probability)`` pairs. Probabilities must sum
        to 1 (within floating-point tolerance).
    """

    __slots__ = ("index", "insts", "successors")

    def __init__(self, index, insts, successors):
        if not insts:
            raise ValueError("a basic block needs at least one instruction")
        total = sum(p for _, p in successors)
        if successors and abs(total - 1.0) > 1e-6:
            raise ValueError(f"successor probabilities sum to {total}, not 1")
        self.index = index
        self.insts = list(insts)
        self.successors = list(successors)

    def __len__(self):
        return len(self.insts)

    def __repr__(self):
        return f"BasicBlock(index={self.index}, n_insts={len(self.insts)})"


class Program:
    """A synthetic program: basic blocks, an entry block, and its PC map.

    The program exposes the static instruction footprint (``static_insts``)
    so fault models can assign per-PC timing properties before simulation.
    """

    def __init__(self, blocks, entry=0, name="synthetic"):
        if not blocks:
            raise ValueError("a program needs at least one basic block")
        self.blocks = list(blocks)
        self.entry = entry
        self.name = name
        self._pc_map = {}
        for block in self.blocks:
            for inst in block.insts:
                if inst.pc in self._pc_map:
                    raise ValueError(f"duplicate PC {inst.pc:#x}")
                self._pc_map[inst.pc] = inst

    @cached_property
    def highest_register(self):
        """Highest architectural register any instruction names."""
        return max((reg for inst in self._pc_map.values()
                    for reg in (inst.dest, *inst.srcs) if reg is not None),
                   default=0)

    @property
    def static_insts(self):
        """All static instructions of the program, in PC order."""
        return [self._pc_map[pc] for pc in sorted(self._pc_map)]

    @property
    def n_static(self):
        """Number of static instructions."""
        return len(self._pc_map)

    def lookup(self, pc):
        """Return the static instruction at ``pc``.

        Raises ``KeyError`` for unknown PCs.
        """
        return self._pc_map[pc]

    def walk(self, rng, max_blocks=None):
        """Yield basic blocks along a probabilistic CFG walk.

        Parameters
        ----------
        rng:
            A ``random.Random``-like object providing ``random()``.
        max_blocks:
            Stop after this many block visits (``None`` = endless).
        """
        count = 0
        block = self.blocks[self.entry]
        while max_blocks is None or count < max_blocks:
            yield block
            count += 1
            if not block.successors:
                return
            r = rng.random()
            cumulative = 0.0
            chosen = block.successors[-1][0]
            for succ, prob in block.successors:
                cumulative += prob
                if r < cumulative:
                    chosen = succ
                    break
            block = self.blocks[chosen]

    def __repr__(self):
        return (
            f"Program(name={self.name!r}, blocks={len(self.blocks)}, "
            f"static_insts={self.n_static})"
        )
