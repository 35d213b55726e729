"""Hot-path classes carry no per-instance ``__dict__``.

Events, ledger bookings, chunks and index entries are made by the million
per timed run; a class in one of these modules that forgets
``__slots__`` (or whose base forgot it) is correct, slower, larger, and
invisible in review.  ``__dictoffset__`` is non-zero exactly when
instances get a ``__dict__``, so this checks what the interpreter
built, inherited slots included.  Exceptions and protocols are exempt.
"""

import importlib
import inspect

import pytest

HOT_PATH_MODULES = (
    "repro.sim.engine", "repro.sim.resources", "repro.types",
    "repro.cpu.model", "repro.dedup.engine", "repro.dedup.bins",
    "repro.dedup.bin_buffer", "repro.dedup.btree", "repro.dedup.gpu_index",
    "repro.dedup.index_base", "repro.dedup.replacement",
    "repro.dedup.chunking", "repro.storage.metadata", "repro.gpu.kernel",
    "repro.gpu.kernels.indexing", "repro.gpu.kernels.indexing_tiled",
)


@pytest.mark.parametrize("name", HOT_PATH_MODULES)
def test_hot_path_classes_are_slotted(name):
    module = importlib.import_module(name)
    classes = [cls for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == name
               and not issubclass(cls, BaseException)
               and not getattr(cls, "_is_protocol", False)]
    assert classes
    assert [cls.__name__ for cls in classes if cls.__dictoffset__] == []
