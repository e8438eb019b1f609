"""Cloud substrate: object store, data-center tax, buffer pool."""

from .. import _lazy_exports

_EXPORTS = {
    "Bill": "objectstore",
    "BufferPool": "bufferpool",
    "EgressOp": "tax",
    "IngressOp": "tax",
    "ObjectStore": "objectstore",
    "StoredObject": "objectstore",
    "TaxConfig": "tax",
    "WirePayload": "tax",
    "xor_cipher": "tax",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
