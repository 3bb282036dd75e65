"""``text_keys`` runs CRC-32 once per string and reads the seeded word off
a per-length table; its keys equal two CRCs per string, for any text."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prep import sketches
from repro.prep.sketches import text_keys
from tests.oracles.identity_rowwise import text_keys_two_crc

#: Any code point, lone surrogates included (encoded ``surrogatepass``).
_PIECES = st.text(
    st.characters(codec=None, categories=None) | st.characters(categories=["Cs"]), max_size=6
)
#: Lengths either side of the shift table's byte-length cap (an ASCII
#: piece lands on it exactly), and far past it.
_LONG = st.sampled_from([0, 1, 64, sketches._SHIFT_CAP - 1, sketches._SHIFT_CAP,
                         sketches._SHIFT_CAP + 1, 3 * sketches._SHIFT_CAP])


@st.composite
def _strings(draw):
    """A piece, repeated to a drawn length or not, with trailing NULs or not."""
    piece = draw(_PIECES)
    if piece and draw(st.booleans()):
        length = draw(_LONG)
        piece = (piece * (length // len(piece) + 1))[:length]
    return piece + "\x00" * draw(st.sampled_from([0, 0, 1, 3]))


@settings(max_examples=300, deadline=None)
@given(batches=st.lists(st.lists(_strings(), max_size=6), min_size=1, max_size=4),
       fresh=st.booleans())
def test_text_keys_equal_two_crcs_per_string(batches, fresh):
    """Each batch keyed in turn, from the shift table as the process left
    it or from its first entry alone, so that later batches grow it."""
    start = sketches._seed_shifts_table
    if fresh:
        start = (np.array([0x5EED], dtype=np.uint64), 0x5EED, 0)
    with mock.patch.object(sketches, "_seed_shifts_table", start):
        for strings in batches:
            keys = text_keys(strings)
            assert keys.dtype == np.uint64 and len(keys) == len(strings)
            assert keys.tolist() == text_keys_two_crc(strings).tolist()

