"""Fixture: trips ``checkpoint-purity`` (the ``_bl8_arr`` bug class) and
nothing else."""

import ctypes


class _ArrayCoreBase:
    pass


class FixtureCore(_ArrayCoreBase):
    def __init__(self, n):
        self.backlog = (ctypes.c_int64 * n)()  # pickled with the core


def bridge(core, n):
    core._bl8_arr = (ctypes.c_int64 * n)()  # ctypes buffer on the core
