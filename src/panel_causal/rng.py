"""Counter-based random number streams for reproducible replicates.

Bootstrap replicates and simulation replicates each get their own stream,
keyed by ``(seed, index)`` through the Philox counter-based generator.
Stream ``r`` therefore produces the same values no matter which replicates
ran before it, so each replicate's result depends only on ``(seed, r)``.
"""

import numpy as np

from .errors import InvalidArgumentError, _as_int

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


def substream(seed, index):
    """Return the generator for stream ``index`` of the family ``seed``.

    Parameters
    ----------
    seed : int
        Family of streams (an integral float counts; a fraction raises),
        taken modulo 2**64: ``-1`` and ``2**64 - 1`` name the same family.
    index : int
        Stream number within the family (replicate index, dataset index),
        from 0 to ``2**64 - 1``.  Distinct indices give statistically
        independent streams.

    Returns
    -------
    numpy.random.Generator
        Generator whose output depends only on ``(seed, index)``.
    """
    index = _as_int(index, "stream index")
    if not 0 <= index <= _MASK64:
        raise InvalidArgumentError(
            f"stream index must be in 0..2**64-1, got {index}")
    key = np.array([_as_int(seed, "seed") & _MASK64, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
