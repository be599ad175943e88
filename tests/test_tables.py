import re
from pathlib import Path

import pytest

from sentepi import InputError, read_csv, write_csv, write_text

SRC = Path(__file__).resolve().parents[1] / "src" / "sentepi"


def _rows_then_failure():
    yield [1, 2]
    raise RuntimeError("body failed")


def test_write_csv_writes_header_then_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], ["x", None]])
    assert path.read_bytes() == b"a,b\r\n1,0.5\r\nx,\r\n"


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, existing):
    path = tmp_path / "t.csv"
    if existing:
        write_csv(path, ["a", "b"], [[3, 4]])
    before = path.read_bytes() if existing else None
    with pytest.raises(RuntimeError, match="body failed"):
        write_csv(path, ["a", "b"], _rows_then_failure())
    assert (path.read_bytes() if path.exists() else None) == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_text_replaces_whole_file(tmp_path):
    path = tmp_path / "t.json"
    write_text(path, "a much longer first version\n")
    write_text(path, "{}\n")
    assert path.read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def _pair(a, b):
    return a, int(b)


def test_read_csv_yields_line_numbers_and_skips_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,n\nx,1\n\ny,2\n")
    assert list(read_csv(path, ["name", "n"], _pair, "name,n")) == [(2, ("x", 1)), (4, ("y", 2))]


@pytest.mark.parametrize(
    "text, line",
    [
        ("name,count\nx,1\n", 1),
        ("", 1),
        ("name,n\nx,1\ny\n", 3),
        ("name,n\nx,1\ny,2,3\n", 3),
        ("name,n\nx,1\n\ny,z\n", 4),
    ],
    ids=["wrong-header", "empty-file", "short-row", "long-row", "parse-rejects"],
)
def test_read_csv_reports_path_and_line(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:{line}: expected "):
        list(read_csv(path, ["name", "n"], _pair, "name,n with an integer n"))


@pytest.mark.parametrize("call", ["csv.writer(", "csv.reader(", "os.replace("])
def test_table_io_lives_only_in_the_package_init(call):
    users = sorted(p.name for p in SRC.glob("*.py") if call in p.read_text())
    assert users == ["__init__.py"]
