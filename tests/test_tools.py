"""tools/bitdump.py, the per-item SHA-256 dump that bit-identity checks diff,
and tools/loc.py, the line counts of the package."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bitdump_hashes_one_item_of_each_kind(capsys, monkeypatch):
    bitdump = _tool("bitdump")
    firsts = [next(make()) for make in bitdump.KINDS.values()]
    for name, thunk in firsts:
        assert re.fullmatch("[0-9a-f]{64}", bitdump.digest(thunk)), name
    # the first CLI item, the README's first tau command: its exit code and
    # the text of its CSVs, not its manifest
    name, thunk = firsts[list(bitdump.KINDS).index("cli")]
    assert name == "tau out/tau"
    value = thunk()
    assert value["codes"] == [0] and sorted(value["csv"]) == ["tau_erf.csv", "tau_linear.csv"]
    assert value["csv"]["tau_linear.csv"].startswith("# activation = linear\n")
    # the first SGD run, with the worker forced off and on: one hash
    sgd = [name for name, _ in bitdump.items() if name.startswith("sgd/")][:2]
    assert bitdump.main(sgd) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[1] for line in lines] == sgd
    assert lines[0].split()[0] == lines[1].split()[0]
    # the first SGD run alone, as the middle member of a lockstep group and
    # as the group of one: one hash, and a group that does not answer fails
    # the dump
    runs = ["sgd/linear aligned stop worker=off", "lockstep/linear aligned stop worker=off",
            "lockstep/linear aligned stop worker=off alone"]
    assert bitdump.main(runs) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[1] for line in lines] == runs
    assert lines[0].split()[0] == lines[1].split()[0] == lines[2].split()[0]
    monkeypatch.setattr(bitdump, "run_lockstep", lambda cfgs: None)
    for name in runs[1:]:
        assert bitdump.main([name]) == 1
        assert "differs" in capsys.readouterr().err
    # a value, a warning and an error each change the hash
    digests = {bitdump.digest(lambda: 1.0), bitdump.digest(lambda: 2.0),
               bitdump.digest(lambda: __import__("warnings").warn("w") or 1.0),
               bitdump.digest(lambda: 1 / 0)}
    assert len(digests) == 4


def test_loc_counts_no_blank_comment_or_docstring_as_code(tmp_path, capsys):
    loc = _tool("loc")
    assert loc.count('"""A module of only a docstring.\n\nAnd comments.\n"""\n# a comment\n\n') == (6, 0)
    source = ('"""Doc."""\n\nX = 1  # code\n\n\ndef f(a):\n    """Its docstring,\n    two lines."""\n'
              '    return (a +\n            "not a docstring")\n\n\nclass C:\n    """Doc."""\n')
    assert loc.count(source) == (14, 5)  # X, def, both lines of return, class
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("# only a comment\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "14", "5"], ["b.py", "1", "0"], ["total", "15", "5"]]
