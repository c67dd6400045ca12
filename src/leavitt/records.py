"""Equality and immutability shared by the package's record types.

A record that only holds values is a ``typing.NamedTuple``: it is built
and hashed by C tuple code, and its hash is that of the plain tuple of its
fields.  Tuple equality ignores the class, so
``TrivialCoeff(0)`` and ``LaurentCoeff(0)`` would be equal tuples, and a
``SinkFamily`` would equal the ``SinkSimple`` with the same vertex and
dimension.  Such a record sets::

    __eq__, __ne__, __hash__ = same_class_eq, same_class_ne, tuple.__hash__

A record that does arithmetic (``Poly``), is read in hot loops (``Edge``),
or keeps data beside its compared fields (``QuotientCoeff``,
``ChenExtSpec``, ``TwistVector``) is a ``__slots__`` subclass of
``Frozen``, the one home of the rule for such records: it names its
compared fields in ``_compared``, and its own ``__init__`` sets them, and
any memo beside them, with ``object.__setattr__``.

Neither kind comes from the standard library's record decorator, which
writes ``__init__``, ``__eq__``, ``__hash__``, ``__repr__`` and
``__setattr__`` out as source and execs it for every class: that cost about
a millisecond a class at import, and the decorator's module loads
``inspect`` and ``ast``.  So ``lpa`` starts without them.
"""

from operator import attrgetter


def same_class_eq(self, other) -> bool:
    """Tuple equality between records of one class; False across classes."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def same_class_ne(self, other) -> bool:
    return not same_class_eq(self, other)


class Frozen:
    """An immutable slots record.  ``_compared`` names its fields in the
    order its constructor takes them; equality (within one class only),
    the hash (that of the tuple of those fields), the repr, copy and pickle
    all read them, and nothing else the record keeps."""

    __slots__ = ()

    def __init_subclass__(cls):
        # attrgetter builds the tuple in C, as fast as a hand-written one; for
        # a single name it returns the bare value
        get = attrgetter(*cls._compared)
        cls._astuple = staticmethod(get if len(cls._compared) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        astuple = self._astuple
        return astuple(self) == astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._compared, self._astuple(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)
