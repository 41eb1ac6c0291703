"""The one artifact writer, and the check that every module uses it.

``fsio._write_atomic`` leaves a file that already holds the bytes in place
and replaces any other by write-temp-then-rename. The check below reads each
module's syntax tree with ``ast``, as ``test_imports.py`` does, and finds any
call outside ``fsio.py`` that writes a file itself.
"""

import ast
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from o2olab import fsio
from o2olab.errors import MissingInputError
from o2olab.fsio import write_json_atomic, write_npy_atomic, write_text_atomic

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "o2olab"

# encoder, a payload, and a different payload of the same encoded length
ENCODERS = {
    "json": (write_json_atomic, {"a": 1, "b": [0.5]}, {"a": 2, "b": [0.5]}),
    "text": (write_text_atomic, "step,mean\n0,0.25\n", "step,mean\n0,0.75\n"),
    "npy": (write_npy_atomic, np.arange(6.0), np.arange(6.0) + 1.0),
}


def stat_of(path):
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_an_identical_rewrite_leaves_the_file_in_place(tmp_path, kind):
    write, payload, _ = ENCODERS[kind]
    path = tmp_path / "artifact"
    write(path, payload)
    before, data = stat_of(path), path.read_bytes()
    write(path, payload)
    assert stat_of(path) == before and path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_other_bytes_of_the_same_length_are_written(tmp_path, kind):
    write, payload, other = ENCODERS[kind]
    path, fresh = tmp_path / "artifact", tmp_path / "fresh"
    write(path, payload)
    write(fresh, other)
    inode, size = path.stat().st_ino, path.stat().st_size
    assert fresh.stat().st_size == size
    write(path, other)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_ino != inode  # replaced by a rename, not rewritten in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]


def test_a_truncated_file_is_replaced(tmp_path):
    path = tmp_path / "run.json"
    write_json_atomic(path, {"steps": list(range(10))})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    write_json_atomic(path, {"steps": list(range(10))})
    assert path.read_bytes() == data
    assert json.loads(data) == {"steps": list(range(10))}


def test_a_difference_past_the_first_chunk_is_written(tmp_path, monkeypatch):
    monkeypatch.setattr(fsio, "_COMPARE_CHUNK", 4)
    path = tmp_path / "curve.csv"
    write_text_atomic(path, "step,mean\n0,0.25\n")
    inode = path.stat().st_ino
    write_text_atomic(path, "step,mean\n0,0.25\n")
    assert path.stat().st_ino == inode
    write_text_atomic(path, "step,mean\n0,0.75\n")
    assert path.read_text(encoding="utf-8") == "step,mean\n0,0.75\n"


def _half_written(path, data):
    with open(path, "wb") as fh:
        fh.write(bytes(data)[: len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


def _refused_rename(src, dst):
    raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "run.json"
    write_json_atomic(path, {"steps": 1})
    old = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(Path, "write_bytes", _half_written)
    else:
        monkeypatch.setattr(fsio.os, "replace", _refused_rename)
    with pytest.raises(OSError):
        write_json_atomic(path, {"steps": 2})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_a_directory_in_the_way_leaves_no_temp_file(tmp_path):
    # a MissingInputError that names the directory, as for a read
    (tmp_path / "report").mkdir()
    with pytest.raises(MissingInputError, match="report is a directory where a file belongs"):
        write_text_atomic(tmp_path / "report", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report"]


# --- one writer ---

WRITE_MODE_LETTERS = set("wax+")
# os.open flags that do not write
READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_NONBLOCK", "O_DIRECTORY"}
# modules whose open takes the file first and the mode second
MODULE_OPENERS = {"os", "io", "codecs", "gzip", "bz2", "lzma", "tarfile", "zipfile"}
# (module, function) calls and methods of any object that write a file
WRITER_CALLS = {
    ("np", "save"), ("np", "savez"), ("np", "savez_compressed"), ("np", "savetxt"),
    ("json", "dump"), ("pickle", "dump"),
}
WRITER_METHODS = {"write_text", "write_bytes", "tofile"}


def _open_mode(call: ast.Call, owner):
    """The mode argument of an ``open`` call, or None when it has none."""
    for keyword in call.keywords:
        if keyword.arg in ("mode", "flags"):
            return keyword.value
    # open(file, mode) and gzip.open(file, mode); path.open(mode)
    file_first = isinstance(call.func, ast.Name) or owner in MODULE_OPENERS
    args = call.args[1:] if file_first else call.args
    return args[0] if args else None


def _mode_writes(mode: ast.expr) -> bool:
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(WRITE_MODE_LETTERS & set(mode.value))
    # os.open flags, or a mode computed at run time, which may write
    names = {n.id for n in ast.walk(mode) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(mode) if isinstance(n, ast.Attribute)}
    return not names <= READ_FLAGS


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else None
    else:
        return False
    if name == "open":
        mode = _open_mode(call, owner)
        return mode is not None and _mode_writes(mode)
    return name in WRITER_METHODS or (owner, name) in WRITER_CALLS


def direct_writes(source: str) -> list[int]:
    """The line of each call in ``source`` that writes a file itself."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _writes(node)
    )


def test_the_check_finds_a_direct_write():
    reads = [
        "open('a')",
        "open('a', 'rb')",
        "Path('a').open()",
        "json.dumps(1)",
        "os.open(path, os.O_RDONLY | os.O_CLOEXEC)",
        "gzip.open(path)",
        "gzip.open('write.gz')",
        "tarfile.open(name, 'r')",
        "io.open(path, mode='r')",
        "np.load('a.npy')",
        "pickle.load(fh)",
    ]
    writes = [
        "open('a', 'w')",
        "Path('a').open(mode='ab')",
        "Path('a').open('r+')",
        "Path('a').write_text('x')",
        "Path('a').write_bytes(b'x')",
        "np.save('a.npy', np.zeros(1))",
        "np.savez('a.npz', x=np.zeros(1))",
        "np.savez_compressed('a.npz', x=np.zeros(1))",
        "np.savetxt('a.txt', np.zeros(1))",
        "np.zeros(1).tofile('a')",
        "json.dump(1, fh)",
        "pickle.dump(1, fh)",
        "open('a', mode)",
        "os.open(path, os.O_WRONLY | os.O_CREAT)",
        "gzip.open(path, 'wt')",
        "tarfile.open(name, mode='w')",
    ]
    source = "\n".join(reads + writes)
    assert direct_writes(source) == list(range(len(reads) + 1, len(reads) + len(writes) + 1))


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "fsio.py")
)
def test_only_fsio_writes_files(module):
    assert direct_writes((PACKAGE / module).read_text(encoding="utf-8")) == []
