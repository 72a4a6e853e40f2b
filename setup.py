"""Packaging metadata for the repro package (``pip install -e .`` works)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read the version from the package without importing it (importing would
# require numpy at sdist-build time).
_init = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
_match = re.search(r'^__version__ = "([^"]+)"$', _init, re.MULTILINE)
if _match is None:
    raise RuntimeError("cannot find __version__ in src/repro/__init__.py")

setup(
    name="repro-qokit",
    version=_match.group(1),
    description=(
        "Reproduction of 'Fast Simulation of High-Depth QAOA Circuits' "
        "(SC 2023): fast QAOA simulators on a precomputed diagonal cost "
        "operator, behind a unified backend registry"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
        "networkx>=3.0",
    ],
    extras_require={
        "test": ["pytest>=7.0", "pytest-cov>=4.0"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
