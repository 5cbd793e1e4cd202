import netloom


def test_every_exported_name_resolves():
    missing = [name for name in netloom.__all__ if not hasattr(netloom, name)]
    assert missing == []
