"""Classic setuptools entry point (metadata inline; no pyproject.toml).

The environment has no network access and no ``wheel`` distribution, so the
PEP-517 editable path (which needs ``bdist_wheel``) is unavailable;
``pip install -e . --no-build-isolation --no-use-pep517`` falls back to this
``setup.py develop`` path.  Metadata lives here directly so the documented
``pip install -e .`` produces a working ``repro`` package either way.
"""

from setuptools import find_packages, setup

setup(
    name="blox-repro",
    version="0.5.0",
    description=(
        "Reproduction of 'Blox: A Modular Toolkit for Deep Learning "
        "Schedulers' (EuroSys 2024), grown into a fast, scenario-rich, "
        "federated scheduling system"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
