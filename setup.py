"""Package metadata for the InfiniCache reproduction.

The project has no ``pyproject.toml``; this classic setuptools file is the
single source of packaging truth.  ``pip install -e .`` gives you the
``repro`` package plus the ``repro`` console script (experiment runner and
its subcommands).
"""

import pathlib

from setuptools import find_packages, setup

_paper = pathlib.Path(__file__).parent / "PAPER.md"

setup(
    name="infinicache-repro",
    version="1.1.0",
    description=(
        "Reproduction of InfiniCache (Wang et al., FAST '20): a serverless "
        "in-memory object cache on a simulated AWS substrate, with cluster "
        "orchestration (autoscaling, multi-tenancy, rebalancing)"
    ),
    long_description=_paper.read_text(encoding="utf-8") if _paper.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    # numpy is imported at module level by ``utils/rng.py``,
    # ``utils/stats.py``, ``erasure/galois.py``, ``erasure/matrix.py`` and
    # ``experiments/figure1.py``, so ``import repro`` needs it.
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro=repro.__main__:main"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: System :: Distributed Computing",
    ],
)
