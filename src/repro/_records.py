"""Record classes, built with one compile each.

``@dataclass`` compiles each method it generates in an ``exec`` of its
own, which was the larger share of a fresh interpreter's set-up.
:func:`record` lets ``dataclass`` find the fields and compiles only
``__init__``, storing a frozen, slotted record's fields through the
slots' descriptors; ``__eq__``, ``__hash__``, ``__repr__`` and the
frozen guards are closures over the fields' ``attrgetter``.
"""

import inspect
from _thread import get_ident
from dataclasses import _HAS_DEFAULT_FACTORY as _FACTORY
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from operator import attrgetter

__all__ = ["field", "record"]


def record(cls=None, /, *, frozen=False, slots=False, eq=True):
    """``@dataclass(frozen=frozen, slots=slots, eq=eq)``, with one compile.

    The options no record uses raise ``TypeError``: ``order``,
    ``kw_only`` and ``unsafe_hash``, a field's ``init``, ``repr``,
    ``compare``, ``hash`` and ``kw_only``, ``InitVar`` and ``ClassVar``.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots, eq=eq)
    if frozen and {"__setattr__", "__delattr__"} & cls.__dict__.keys():
        raise TypeError(f"record: {cls.__name__} has its own frozen guard")
    documented = bool(cls.__doc__)
    cls = dataclass(init=False, repr=False, eq=False, slots=slots)(cls)
    params = cls.__dataclass_params__
    params.init = params.repr = True
    params.eq, params.frozen = eq, frozen
    specs = fields(cls)
    for spec in specs:
        plain = spec.init and spec.repr and spec.compare and not spec.kw_only
        if not plain or spec.hash is not None:
            raise TypeError(f"record: field {spec.name!r} is not plain")
    if len(specs) < len(cls.__dataclass_fields__):
        raise TypeError(f"record: {cls.__name__} has a pseudo-field")
    names = tuple(spec.name for spec in specs)
    get = attrgetter(*names) if names else lambda self: ()
    values = (lambda self: (get(self),)) if len(names) == 1 else get
    running = set()
    template = "{}(" + ", ".join(f"{name}={{!r}}" for name in names) + ")"

    def __repr__(self):
        key = id(self), get_ident()
        if key in running:
            return "..."
        running.add(key)
        try:
            return template.format(self.__class__.__qualname__, *values(self))
        finally:
            running.discard(key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    # What dataclass sets, less what the class body spells out itself.
    own = cls.__dict__
    methods = {"__init__": _compile_init(cls, specs, frozen, slots)}
    methods["__repr__"] = __repr__
    if eq:
        methods["__eq__"] = __eq__
    if frozen:
        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    if frozen and slots:
        methods["__getstate__"] = lambda self: list(values(self))
        methods["__setstate__"] = __setstate__
    methods = {k: v for k, v in methods.items() if k not in own}
    # An explicit __hash__ stays; the None an __eq__ in the body leaves
    # does not count as one.
    kept = own.get("__hash__", MISSING)
    if eq and (kept is MISSING or kept is None and "__eq__" in own):
        methods["__hash__"] = None
        if frozen:
            methods["__hash__"] = lambda self: hash(values(self))
    for name, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if not documented:
        signature = str(inspect.signature(cls)).replace(" -> None", "")
        cls.__doc__ = cls.__name__ + signature
    return cls


def _compile_init(cls, specs, frozen, slots):
    """The dataclass's ``__init__``: its parameters, defaults, default
    factories and annotations, and its ``__post_init__`` call."""
    namespace = {"__name__": cls.__module__, "_FACTORY": _FACTORY}
    params, body = [], []
    for k, spec in enumerate(specs):
        name = value = spec.name
        params.append(name)
        if spec.default is not MISSING:
            namespace[f"_default{k}"] = spec.default
            params[-1] += f"=_default{k}"
        elif spec.default_factory is not MISSING:
            namespace[f"_factory{k}"] = spec.default_factory
            params[-1] += "=_FACTORY"
            value = f"_factory{k}() if {name} is _FACTORY else {name}"
        if frozen and slots:
            namespace[f"_set{k}"] = cls.__dict__[name].__set__
            body.append(f"_set{k}(self, {value})")
        elif frozen:
            body.append(f"object.__setattr__(self, {name!r}, {value})")
        else:
            body.append(f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    lines = "".join(f"    {line}\n" for line in body or ["pass"])
    source = f"def __init__(self, {', '.join(params)}):\n{lines}"
    exec(compile(source, f"<{cls.__qualname__}.__init__>", "exec"), namespace)
    init = namespace["__init__"]
    init.__annotations__ = {spec.name: spec.type for spec in specs}
    init.__annotations__["return"] = None
    return init
