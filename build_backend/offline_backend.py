"""In-tree PEP 517 / PEP 660 build backend, standard library only.

``pyproject.toml`` names this module as its backend with
``requires = []``, so ``pip install .`` and ``pip install -e .`` need
neither network access nor setuptools/wheel: pip's isolated build
environment has nothing to download, and the wheel is assembled here
with :mod:`zipfile` and :mod:`hashlib`.

* ``build_wheel`` packs every file under ``src/`` (byte-code caches
  excluded) into a pure-Python ``py3-none-any`` wheel.
* ``build_editable`` produces a wheel holding only a ``.pth`` file that
  puts this checkout's ``src/`` directory on ``sys.path``.

Only the ``[project]`` keys this repository uses are read: ``name``,
``version``, ``description`` and ``requires-python``.
"""

import base64
import hashlib
import os
import re
import zipfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SOURCE = os.path.join(_ROOT, "src")
_TAG = "py3-none-any"
_PROJECT_KEY = re.compile(r'^([A-Za-z0-9_-]+)\s*=\s*"([^"]*)"\s*$')


def _project():
    """The ``[project]`` string keys of ``pyproject.toml``."""
    fields, in_project = {}, False
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("["):
                in_project = line == "[project]"
                continue
            match = _PROJECT_KEY.match(line)
            if in_project and match:
                fields[match.group(1)] = match.group(2)
    return fields


def _dist_name(project):
    return re.sub(r"[-_.]+", "_", project["name"]), project["version"]


def _metadata(project):
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {project['name']}",
        f"Version: {project['version']}",
    ]
    if "description" in project:
        lines.append(f"Summary: {project['description']}")
    if "requires-python" in project:
        lines.append(f"Requires-Python: {project['requires-python']}")
    return "\n".join(lines) + "\n"


def _record_line(arcname, data):
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
    return f"{arcname},sha256={digest.rstrip(b'=').decode()},{len(data)}"


def _write_wheel(wheel_directory, files):
    """Write ``files`` (arcname → bytes) plus dist-info; returns the name."""
    project = _project()
    name, version = _dist_name(project)
    dist_info = f"{name}-{version}.dist-info"
    files = dict(files)
    files[f"{dist_info}/METADATA"] = _metadata(project).encode()
    files[f"{dist_info}/WHEEL"] = (
        "Wheel-Version: 1.0\n"
        "Generator: offline_backend\n"
        "Root-Is-Purelib: true\n"
        f"Tag: {_TAG}\n"
    ).encode()
    record_name = f"{dist_info}/RECORD"
    record = [_record_line(arcname, data) for arcname, data in files.items()]
    record.append(f"{record_name},,")
    files[record_name] = ("\n".join(record) + "\n").encode()

    filename = f"{name}-{version}-{_TAG}.whl"
    path = os.path.join(wheel_directory, filename)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as wheel:
        for arcname, data in files.items():
            wheel.writestr(arcname, data)
    return filename


def _source_files():
    files = {}
    for directory, subdirs, names in os.walk(_SOURCE):
        subdirs[:] = sorted(
            sub for sub in subdirs
            if sub != "__pycache__" and not sub.endswith(".egg-info")
        )
        for filename in sorted(names):
            if filename.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(directory, filename)
            arcname = os.path.relpath(path, _SOURCE).replace(os.sep, "/")
            with open(path, "rb") as handle:
                files[arcname] = handle.read()
    return files


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    return _write_wheel(wheel_directory, _source_files())


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    name, _ = _dist_name(_project())
    pth = f"__editable__.{name}.pth"
    return _write_wheel(wheel_directory, {pth: (_SOURCE + "\n").encode()})
