"""``python -m tests.alloc_digest --compare PARENT CHILD`` on small files."""

from tests.alloc_digest import compare


def _write(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def test_changed_lines_are_listed_per_column(tmp_path, capsys):
    parent = _write(
        tmp_path / "parent.txt",
        ["a 1111 aaaa", "b 2222 bbbb", "c error eeee eeee", "gone 3333 cccc"],
    )
    child = _write(
        tmp_path / "child.txt",
        ["a 1111 aaaa", "b 2229 bbbb", "c error ffff ffff", "new 4444 dddd"],
    )
    assert compare(parent, child) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in parent: 1",
        "  gone",
        "only in child: 1",
        "  new",
        "full: 2 of 3 lines changed",
        "  b",
        "  c",
        "tie-blind: 1 of 3 lines changed",
        "  c",
    ]


def test_equal_files_and_an_older_two_column_parent(tmp_path, capsys):
    child = _write(tmp_path / "child.txt", ["a 1111 aaaa", "b 2222 bbbb"])
    assert compare(child, child) == 0
    parent = _write(tmp_path / "parent.txt", ["a 1111", "b 2222"])
    assert compare(parent, child) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "full: 0 of 2 lines changed",
        "tie-blind: 0 of 0 lines changed",
    ]
