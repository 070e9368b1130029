import markovsim as ms


def test_every_export_resolves_and_star_import_works():
    assert len(set(ms.__all__)) == len(ms.__all__)
    for name in ms.__all__:
        getattr(ms, name)
    namespace = {}
    exec("from markovsim import *", namespace)
    assert set(ms.__all__) <= set(namespace)
    # the payload pair is the one encoder and decoder
    assert not {"encode", "decode"} & set(ms.__all__)
