"""Replicate streams: a keyed Philox per ``(seed, index)``, built without OS
entropy."""

import subprocess
import sys

import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest

from panel_causal import substream

from helpers import source_env


@pytest.mark.parametrize("seed,index", [(0, 0), (1, 5), (-1, 3), (2**64 - 1, 2**64 - 1),
                                        (12345678901234567890, 7)])
def test_stream_is_the_philox_of_its_key(seed, index):
    got = substream(seed, index)
    want = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2**64, index], dtype=np.uint64)))
    assert str(got.bit_generator.state) == str(want.bit_generator.state)
    assert np.array_equal(got.integers(0, 1000, 50), want.integers(0, 1000, 50))
    assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
    assert str(got.bit_generator.state) == str(want.bit_generator.state)


def test_stream_reads_no_os_entropy(monkeypatch):
    # numpy seeds a SeedSequence() from OS entropy by this function; a
    # Philox given key= builds one and throws it away.
    def entropy(*args, **kwargs):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(bit_generator, "randbits", entropy)
    assert substream(3, 4).integers(0, 2**62) == substream(3, 4).integers(0, 2**62)


def test_importing_the_package_loads_no_random_module():
    # numpy.random takes about 5 MB resident; a process that never draws
    # (an estimate) should not pay for it.  numpy 1.x imports it itself.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import panel_causal; assert ('numpy.random' in sys.modules) == before")
    subprocess.run([sys.executable, "-c", code], check=True, env=source_env())
