"""The CLI reproduces the pinned output corpus of golden_corpus."""

import contextlib
import io
import json
import sys

import golden_corpus as corpus
from edgespec import cli


def test_cli_outputs_match_the_pinned_digests(tmp_path):
    expected = json.loads(corpus.DIGESTS.read_text())
    assert corpus.differences(expected, corpus.digests(tmp_path.resolve())) == []


def test_a_one_character_change_fails_the_corpus(tmp_path, monkeypatch):
    where = tmp_path.resolve()
    runs = dict(corpus.write_inputs(where))
    case = "invariant petersen.edges --format machine"
    before = corpus.run(runs[case], where)
    emit = cli._emit_machine

    def altered(payload):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            emit(payload)
        sys.stdout.write(text.getvalue().replace("1", "l", 1))

    monkeypatch.setattr(cli, "_emit_machine", altered)
    assert corpus.run(runs[case], where) != before
