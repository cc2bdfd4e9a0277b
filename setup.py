"""Packaging for the SpotTune reproduction (src/ layout).

``pip install -e .`` makes the ``repro`` package importable without
``PYTHONPATH=src`` and installs the ``repro`` console script, so
``repro sweep --jobs 4`` works from any directory.
"""

from setuptools import find_packages, setup

setup(
    name="spottune-repro",
    version="1.0.0",
    description=(
        "Reproduction of SpotTune: cost-efficient hyper-parameter "
        "tuning on transient cloud resources (ICDCS 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
