"""The base of coxvar's read-only value types.

A subclass lists its fields in ``_fields`` (and in ``__slots__``, with
any derived attributes), checks its arguments in an explicit
``__init__`` and stores them with ``_set``.  After that an instance is
read-only, and it is compared, hashed, printed and pickled by its
fields, as a frozen dataclass would be.  The other records are
``typing.NamedTuple``s.  A record stays a Record when it has a check,
a default built per instance, or a use where numpy would read a tuple
as a sequence: a reflection passed where an array is expected, a
CuspClass stored into the slots of an object array.
Creating a Record class generates no code, and creating a NamedTuple
only its ``__new__``.  A dataclass generates and compiles all its
methods on every import: in the benchmark's set-up, which imports the
package afresh, that took about 18.5% of the time.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
