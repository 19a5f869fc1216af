"""Cycle-approximate simulator, functional crossbar emulator and DSE toolkit
for an analog in-memory accelerator tightly coupled to an 8-core cluster.

Import the modules by name (`from imasim import mapper`); the package root
holds only the version."""

__version__ = "0.1.0"
