"""Counter-based random number streams for reproducible replicates.

Bootstrap replicates and simulation replicates each get their own stream,
keyed by ``(seed, index)`` through the Philox counter-based generator.
Stream ``r`` therefore produces the same values no matter which replicates
ran before it, so each replicate's result depends only on ``(seed, r)``.
"""

from functools import cache

import numpy as np

from .errors import InvalidArgumentError, _as_int

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


class _Key:
    """The seed sequence of a keyed Philox: the ``(seed, index)`` key words.

    Philox draws its key from its seed sequence when given no ``key=``.
    Given ``key=`` instead, numpy still builds a ``SeedSequence()`` from OS
    entropy before discarding it, which costs more than the rest of the
    generator.  This sequence hands Philox the key it would have set, so the
    stream and its state are the same.  It is numpy's ``ISeedSequence`` by
    registration (:func:`_registered`).
    """

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@cache
def _registered():
    """Register :class:`_Key` as an ``ISeedSequence``, once.  Done on the
    first stream rather than on import: ``numpy.random`` (about 5 MB
    resident) then loads only in a process that draws."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_Key)


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
        Generator whose output depends only on ``(seed, index)``: a Philox
        keyed by the two 64-bit words ``(seed mod 2**64, index)``, with its
        counter at 0.  No OS entropy is read (see :class:`_Key`).
    """
    index = _as_int(index, "stream index")
    if not 0 <= index <= _MASK64:
        raise InvalidArgumentError(
            f"stream index must be in 0..2**64-1, got {index}")
    key = np.array([_as_int(seed, "seed") & _MASK64, index], dtype=np.uint64)
    _registered()
    return np.random.Generator(np.random.Philox(_Key(key)))
