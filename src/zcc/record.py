"""The two bases of zcc's slotted classes, on builtins only.  A class names
its fields in `__slots__`: a tuple, or a dict from each field to its meaning."""


class Record:
    """Built from its fields, by position or by keyword."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = _arrange(type(self), args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)


def _arrange(cls, args: tuple, kwargs: dict) -> tuple:
    """The fields in slot order; TypeError if one is missing, unknown or repeated."""
    names = tuple(cls.__slots__)
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__} has no field {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__} got field {name!r} twice")
        values[name] = value
    if len(args) > len(names) or len(values) < len(names):
        raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
    return tuple(values[name] for name in names)


class Value(Record):
    """A Record that cannot be assigned to, equal and hashed by its fields as
    `__reduce__` lists them; never equal to another class's instance, a plain
    tuple included."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (self.__class__, tuple(map(self.__getattribute__, self.__slots__)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())
