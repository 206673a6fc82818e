"""The impairment proxy's frame splitter, fuzzed.

``_FrameSplitter`` keeps impairment message-grained on every cluster
link: it cuts a byte stream into whole ``Rr`` (pickled record), ``Rh``
(auth challenge) and ``Ra`` (sealed envelope) frames, however the
kernel chunked it, and passes anything else through as an opaque tail.
Three properties, over arbitrary chunk boundaries:

- well-formed frames of all three magics come out whole and in order;
- arbitrary bytes never raise;
- the bytes out plus ``pending`` always equal the bytes in.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import auth
from repro.cluster.proxy import _FrameSplitter
from repro.core.backends import wire


@st.composite
def frames(draw):
    """One well-formed frame of any of the three magics."""
    magic = draw(st.sampled_from([wire.MAGIC, auth.CHALLENGE_MAGIC,
                                  auth.AUTH_MAGIC]))
    if magic == auth.CHALLENGE_MAGIC:
        nonce = draw(st.binary(min_size=auth.NONCE_LEN,
                               max_size=auth.NONCE_LEN))
        return magic + nonce
    body = draw(st.binary(max_size=64))
    if magic == wire.MAGIC:
        return wire.FRAME.pack(magic, len(body), zlib.crc32(body)) + body
    counter = draw(st.integers(min_value=0, max_value=2 ** 64 - 1))
    return auth.seal(b"key", b"n" * auth.NONCE_LEN, b"c", counter, body)


def chunks(data, cuts):
    """``data`` cut at the (clamped, sorted) offsets ``cuts``."""
    bounds = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])] or [b""]


def split(data, cuts):
    """Feed ``data`` chunk by chunk; the frames out, checking at every
    step that the bytes out plus ``pending`` are the bytes in."""
    splitter = _FrameSplitter()
    fed, out = b"", []
    for chunk in chunks(data, cuts):
        fed += chunk
        out.extend(splitter.feed(chunk))
        assert b"".join(out) + splitter.pending == fed
    return splitter, out


@settings(derandomize=True, max_examples=200)
@given(st.lists(frames(), max_size=8),
       st.lists(st.integers(min_value=0, max_value=1200), max_size=12))
def test_well_formed_frames_come_out_whole_and_in_order(sent, cuts):
    splitter, out = split(b"".join(sent), cuts)
    assert out == sent
    assert splitter.pending == b""
    assert not splitter.opaque


@settings(derandomize=True, max_examples=300)
@given(st.lists(frames(), max_size=3), st.binary(max_size=200),
       st.lists(st.integers(min_value=0, max_value=600), max_size=12))
def test_arbitrary_bytes_never_raise_and_are_never_lost(sent, tail, cuts):
    splitter, out = split(b"".join(sent) + tail, cuts)
    assert out[:len(sent)] == sent
