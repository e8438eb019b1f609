"""Cloud substrate: object store, data-center tax, buffer pool, caches."""

from .. import _lazy_exports

_EXPORTS = {
    "Bill": "objectstore",
    "BufferPool": "bufferpool",
    "DataCache": "caches",
    "EgressOp": "tax",
    "IngressOp": "tax",
    "ObjectStore": "objectstore",
    "ResultCache": "caches",
    "StoredObject": "objectstore",
    "TaxConfig": "tax",
    "WirePayload": "tax",
    "plan_fingerprint": "caches",
    "xor_cipher": "tax",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
