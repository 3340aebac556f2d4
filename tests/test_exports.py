import solit


def test_every_exported_name_resolves():
    missing = [name for name in solit.__all__ if not hasattr(solit, name)]
    assert not missing, missing
    assert len(set(solit.__all__)) == len(solit.__all__)
