"""Every report of the golden argv set is byte-identical to its recorded
digest: exit code, stdout, stderr and the --out file, in all three formats.
See golden.py for the argv set and how to regenerate the digests."""

import pytest

import golden

DIGESTS = golden.load()


def test_digest_file_covers_the_argv_set():
    assert sorted(DIGESTS) == sorted(golden.case_id(argv) for argv in golden.CASES)


@pytest.mark.parametrize("argv", golden.CASES, ids=golden.case_id)
def test_report_bytes_match_the_recorded_digest(argv):
    assert golden.digest(argv) == DIGESTS[golden.case_id(argv)]


@pytest.mark.parametrize("ids, status", [([], 0), (["ppt --q 0.2 --format json"], 1)])
def test_changed_exits_1_only_when_it_lists_a_case(monkeypatch, capsys, ids, status):
    monkeypatch.setattr(golden, "changed", lambda: ids)
    assert golden.main(["--changed"]) == status
    assert capsys.readouterr().out == "".join(cid + "\n" for cid in ids)


def test_an_unknown_argument_is_a_usage_error(capsys):
    assert golden.main(["--bogus"]) == 2
    assert capsys.readouterr().err == "usage: golden.py [--changed]\n"
