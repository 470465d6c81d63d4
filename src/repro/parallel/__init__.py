"""Process-portable summaries: the term-table codec and the on-disk store.

See ``src/repro/parallel/README.md`` for the codec and the persistent
store format.  The package keeps its historical name because the
benchmark under ``perfbench/`` imports ``repro.parallel.store``.
"""

from repro.parallel.serialize import (
    EntryDecoder,
    SerializationError,
    TermTable,
    build_rows,
    decode_cache_entry,
    decode_value,
    encode_cache_entries,
    encode_cache_entry,
    encode_value,
)
from repro.parallel.store import STORE_FORMAT, PersistentSummaryStore

__all__ = [
    "EntryDecoder",
    "PersistentSummaryStore",
    "STORE_FORMAT",
    "SerializationError",
    "TermTable",
    "build_rows",
    "decode_cache_entry",
    "decode_value",
    "encode_cache_entries",
    "encode_cache_entry",
    "encode_value",
]
