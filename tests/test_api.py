import delshadow


class TestPublicNames:
    def test_star_import_binds_every_exported_name(self):
        # A name left in __all__ after its import is gone passes `import
        # delshadow` but makes `from delshadow import *` raise.
        namespace = {}
        exec("from delshadow import *", namespace)
        assert set(delshadow.__all__) <= namespace.keys()

    def test_exports_are_listed_once(self):
        assert len(delshadow.__all__) == len(set(delshadow.__all__))
