"""Every artifact version's token stream, pinned.

Each version's tokens -- type, text, line and column, EOF included -- feed one
SHA-256 digest per artifact history.  ``PINNED`` holds the digests of the
character-by-character scanner the master-pattern lexer replaced, so the two
agree on every program of the corpus.
"""

import hashlib

import pytest

from repro.artifacts import all_artifacts, interproc_artifacts
from repro.lang.lexer import tokenize

PINNED = {
    "ASW": (2836, "0b30f69a993d347cf85179ed484db53cdb4ca1ab8eda037d0872d0e19cbd6bdb"),
    "WBS": (1933, "4225c74d1b5d354e1d8422bcd684096056398eaf21cd68e2baf5e95a85d4cf8e"),
    "OAE": (2288, "ff6c437817ffee94683c899834903c71c3e429417a1db4a923a51cbb4a98c971"),
    "ASW-CALLS": (1856, "c23072dd941b6b8367c891869ddb99afeca941f47eebe9f847ef9b872dc0a8de"),
    "FCS": (2310, "465ef6ac035eddc969261d6c4f48d2a6c5fa91d4733bd6eba9a938edc38cd477"),
}


def history_digest(artifact):
    digest = hashlib.sha256()
    count = 0
    for _, _, _, source in artifact.history():
        for token in tokenize(source):
            digest.update(repr((token.type.name, token.value, token.line, token.column)).encode())
            count += 1
    return count, digest.hexdigest()


ARTIFACTS = [*all_artifacts(), *interproc_artifacts()]


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda artifact: artifact.name)
def test_history_token_stream_as_pinned(artifact):
    assert history_digest(artifact) == PINNED[artifact.name]
