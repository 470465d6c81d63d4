"""Summary-cache entries keyed inside a spliced callee survive the codec."""

from repro.lang.parser import parse_program
from repro.symexec.engine import SymbolicExecutor
from repro.symexec.summary_cache import SummaryCache

from tests.parallel.test_serialize import decode_all, encode_all

CALLS_SOURCE = """
global int g = 0;

proc vote(int s1, int s2) {
    int v = 0;
    if (s1 > 0) { v = v + 1; }
    if (s2 > 0) { v = v + 1; }
    return v;
}

proc main(int a, int b, int c, int d) {
    int x = 0;
    int y = 0;
    x = vote(a, b);
    y = vote(c, d);
    g = x + y;
}
"""


class TestFrameCodec:
    def test_cache_entry_with_frame_fingerprint_roundtrips(self):
        """Fingerprint entries with tuple names survive the codec."""
        program = parse_program(CALLS_SOURCE)
        executor = SymbolicExecutor(
            program, procedure_name="main", summary_cache=SummaryCache()
        )
        executor.run()
        entries = list(executor.summary_cache.iter_entries())
        assert entries
        framed = [
            (key, summary)
            for key, summary in entries
            if any(isinstance(name, tuple) for name, _ in key[2])
        ]
        assert framed, "expected at least one cache entry keyed inside a callee"
        for key, summary in framed[:3]:
            [(decoded_key, _)] = decode_all(encode_all([(key, summary)]))
            assert decoded_key == key
