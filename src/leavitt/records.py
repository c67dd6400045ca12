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
``ChenExtSpec``, ``TwistVector``) is a ``__slots__`` class whose
``__init__`` sets its fields with ``object.__setattr__`` and whose
``__setattr__`` and ``__delattr__`` are ``frozen``.

Neither kind comes from the standard library's record decorator, which
writes ``__init__``, ``__eq__``, ``__hash__``, ``__repr__`` and
``__setattr__`` out as source and execs it for every class: that cost about
a millisecond a class at import, and the decorator's module loads
``inspect`` and ``ast``.  So ``lpa`` starts without them.
"""


def same_class_eq(self, other) -> bool:
    """Tuple equality between records of one class; False across classes."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def same_class_ne(self, other) -> bool:
    return not same_class_eq(self, other)


def frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of an immutable slots record."""
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")
