"""Frozen slotted records that are cheap to build.

A frozen dataclass's generated ``__init__`` stores every field through
``object.__setattr__``, the generic path its own ``__setattr__`` guard
forces.  The engine builds some records once per operation, where that
path is a measurable share of the planning cost.
"""

from dataclasses import MISSING, dataclass, fields


def frozen_record(cls):
    """``@dataclass(frozen=True, slots=True)``, whose ``__init__`` then
    stores each field through its slot's member descriptor, bound once
    here.  The signature and the defaults are the dataclass's, and so is
    everything else: ``__eq__``, ``__hash__``, ``__repr__``, pickling,
    ``dataclasses.replace`` and the ``__setattr__`` that raises
    ``FrozenInstanceError``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError("frozen_record: __post_init__ is not supported")
    params, body = [], []
    namespace = {"__name__": cls.__module__}
    for k, spec in enumerate(fields(cls)):
        if spec.default_factory is not MISSING or spec.kw_only or not spec.init:
            raise TypeError(f"frozen_record: field {spec.name!r} is not plain")
        namespace[f"_set{k}"] = cls.__dict__[spec.name].__set__
        if spec.default is MISSING:
            params.append(spec.name)
        else:
            namespace[f"_default{k}"] = spec.default
            params.append(f"{spec.name}=_default{k}")
        body.append(f"    _set{k}(self, {spec.name})\n")
    source = f"def __init__(self, {', '.join(params)}):\n{''.join(body)}"
    exec(compile(source, f"<{cls.__qualname__}.__init__>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
