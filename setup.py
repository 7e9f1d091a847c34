"""Packaging metadata for the ``repro`` distribution (the package under ``src/``).

This file is the single source of packaging metadata; the version is read
from ``src/repro/_version.py``.  It also keeps editable installs working
without the ``wheel`` package, which the PEP-660 editable-install path of
setuptools < 70 requires: ``pip install -e . --no-build-isolation`` falls
back to the legacy ``setup.py develop`` route.  Check the metadata with
``python setup.py --name --version``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "networkx"],
)
