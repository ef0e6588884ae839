"""Setuptools entry point.

Kept alongside pyproject.toml so the package installs in offline
environments that lack the ``wheel`` package (legacy editable installs via
``pip install -e . --no-use-pep517`` go through this file).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DirectLoad (ICDE 2019) reproduction: deduplicating index delivery "
        "plus an AOF/memtable storage engine on a simulated SSD"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
