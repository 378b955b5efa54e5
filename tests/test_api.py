import ewrobust


def test_every_public_name_resolves():
    missing = [name for name in ewrobust.__all__ if not hasattr(ewrobust, name)]
    assert not missing
    assert len(set(ewrobust.__all__)) == len(ewrobust.__all__)
