"""The package's public names."""

import wmfock


def test_every_exported_name_resolves():
    missing = [name for name in wmfock.__all__ if not hasattr(wmfock, name)]
    assert missing == []
