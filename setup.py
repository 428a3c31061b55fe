"""Packaging for the cgRX reproduction.

Kept as a plain ``setup.py`` so the package installs in offline environments
without the ``wheel``/``build`` toolchain (``pip install -e .`` works from a
bare setuptools).
"""

from setuptools import find_packages, setup

setup(
    name="repro-cgrx",
    version="1.7.0",
    description=(
        "Software reproduction of cgRX (ICDE 2025): hardware-accelerated "
        "coarse-granular GPU indexing, with vectorized and compiled batch "
        "execution engines and a sharded, replicated serving layer"
    ),
    long_description=(
        "Pure Python/numpy reproduction of 'More Bang For Your Buck(et): "
        "Fast and Space-efficient Hardware-accelerated Coarse-granular "
        "Indexing on GPUs' (conf_icde_HennebergSKB25), including the cgRX/"
        "cgRXu indexes, six evaluation baselines, the paper's experiment "
        "suite, and a serving subsystem (sharding, replication with quorum "
        "writes and failover, request batching, result caching, background "
        "maintenance)."
    ),
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    # The compiled hot-path tier builds its C kernels with the system C
    # compiler at first use; without one it falls back to the scalar engine.
    extras_require={
        "test": ["pytest"],
    },
    entry_points={
        "console_scripts": [
            "repro-bench=repro.bench.experiments:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Database",
        "Topic :: Scientific/Engineering",
    ],
)
