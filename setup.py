"""Setuptools entry point.

Packaging metadata lives here (rather than PEP 621 pyproject metadata)
because the target environment ships without the ``wheel`` package, which
PEP 517 editable installs require; the classic ``setup.py develop`` path
works everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "IMPACT: low-power high-level synthesis for control-flow intensive "
        "circuits (DATE 1998 reproduction)"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    # scipy and networkx are oracles: tests compare the in-tree Brent
    # root-find and skeleton order against them.
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis",
                             "networkx>=3.0", "scipy>=1.10"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
