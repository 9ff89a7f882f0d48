"""Every name a package exports resolves, so ``import *`` cannot break."""

import pytest

import painforge
import painforge.facesynth


@pytest.mark.parametrize("package", [painforge, painforge.facesynth],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
