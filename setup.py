"""Setup shim so that editable installs work without the ``wheel`` package."""

from setuptools import setup

setup()
