"""PEP 562 re-exports: a package names what it offers in one table and
loads a module only when one of its names is first used."""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``, from a ``{module: names}`` table.

    A table name is imported from its module on first access and bound
    in ``namespace``, so later lookups never come back here.  Any other
    name is tried as a submodule (``pkg.sub`` works without an explicit
    ``import pkg.sub``); failing that it is an ``AttributeError``.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as missing:
                if missing.name != f"{package}.{name}":
                    raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        source = import_module(module)
        try:
            value = getattr(source, name)
        except AttributeError:
            raise AttributeError(
                f"{package}: export row {module!r} names {name!r}, which "
                f"{module!r} does not define"
            ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__, list(home)
