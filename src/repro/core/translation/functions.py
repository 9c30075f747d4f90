"""Translation functions ``T`` used by assignments (equation 6).

When the content of a source field is not directly assignable to the target
field — different types, different encodings, different conventions — the
assignment routes the value through a *translation function*.  Functions
are registered by name in a :class:`TranslationFunctionRegistry`, so new
translations can be plugged in at runtime without changing the engine.

The built-in functions cover what the paper's discovery case studies need:

``identity``            return the value unchanged (the default behaviour);
``to_int`` / ``to_str`` numeric/textual casts;
``url_base``            extract the base URL from an HTTP device description body;
``url_host``/``url_port``/``url_path``  pick apart a URL;
``service_type_to_dns`` map an SLP/SSDP service type to an mDNS service name
                        (``service:test`` -> ``_test._tcp.local``);
``dns_to_service_type`` the reverse mapping;
``prefix`` / ``suffix`` prepend/append a literal argument;
``bridge_http_location`` build an HTTP URL pointing at the bridge itself
                        (used when the bridge must serve a UPnP device
                        description on behalf of a non-UPnP service);
``constant``            ignore the source value and return the literal argument
                        (used to fill protocol boilerplate such as
                        ``MAN: "ssdp:discover"``);
``slp_service_type`` / ``upnp_service_type``
                        normalise a service identifier from any of the three
                        discovery vocabularies into the SLP (``service:test``)
                        or UPnP (``urn:schemas-upnp-org:service:test:1``) form;
``device_description``  wrap a service URL into a minimal UPnP device
                        description document (the body the bridge serves when
                        it answers an HTTP GET on behalf of a non-UPnP service).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional, Sequence
from urllib.parse import urlparse

from ..errors import TranslationError
from ..message import AbstractMessage

__all__ = [
    "BUILTIN_FUNCTIONS",
    "TranslationFunctionRegistry",
    "default_translation_registry",
    "function_failed",
]


TranslationFunction = Callable[..., Any]


class TranslationFunctionRegistry:
    """Runtime-extensible registry of named translation functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, TranslationFunction] = {}
        #: Bumped by every :meth:`register`; generated translators that
        #: resolved a function once compare it to know they are stale.
        self.version = 0

    def register(self, name: str, function: TranslationFunction) -> None:
        self._functions[name] = function
        self.version += 1

    def lookup(self, name: str) -> Optional[TranslationFunction]:
        """The function registered under ``name``, or ``None``."""
        return self._functions.get(name)

    def has(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)

    def apply(
        self,
        name: str,
        value: Any,
        arguments: Sequence[str] = (),
        context: Optional[Dict[str, Any]] = None,
        source: Optional[AbstractMessage] = None,
        target: Optional[AbstractMessage] = None,
    ) -> Any:
        """Apply the function ``name`` to ``value``.

        Functions receive the value plus keyword-only extras (literal
        ``arguments`` from the assignment, a copy of the engine ``context``,
        and the source/target message instances); simple functions may
        ignore them.  Any failure but a :class:`TranslationError` is
        wrapped into one (:func:`function_failed`).
        """
        function = self._functions.get(name)
        if function is None:
            raise TranslationError(f"unknown translation function '{name}'")
        try:
            return function(
                value,
                arguments=tuple(arguments),
                context=dict(context or {}),
                source=source,
                target=target,
            )
        except TranslationError:
            raise
        except Exception as exc:
            raise function_failed(name, value, exc) from exc

    def register_defaults(self) -> "TranslationFunctionRegistry":
        for name, function in BUILTIN_FUNCTIONS.items():
            self.register(name, function)
        return self


def function_failed(name: str, value: Any, exc: Exception) -> TranslationError:
    """The error for translation function ``name`` raising ``exc`` on ``value``."""
    return TranslationError(f"translation function '{name}' failed on {value!r}: {exc}")


def default_translation_registry() -> TranslationFunctionRegistry:
    """Return a fresh registry containing the built-in translation functions."""
    return TranslationFunctionRegistry().register_defaults()


# ----------------------------------------------------------------------
# built-in functions
# ----------------------------------------------------------------------
def _identity(value: Any, **_: Any) -> Any:
    return value


def _to_int(value: Any, **_: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    text = str(value).strip()
    match = re.search(r"-?\d+", text)
    if match is None:
        raise TranslationError(f"cannot convert {value!r} to an integer")
    return int(match.group(0))


def _to_str(value: Any, **_: Any) -> str:
    return "" if value is None else str(value)


_URL_IN_TEXT = re.compile(r"https?://[^\s<>\"']+")


def _url_base(value: Any, **_: Any) -> str:
    """Extract the first URL found in a text blob (e.g. ``URLBase`` of a
    UPnP device description served over HTTP)."""
    text = "" if value is None else str(value)
    match = _URL_IN_TEXT.search(text)
    if match is None:
        raise TranslationError(f"no URL found in {text!r}")
    return match.group(0)


def _parse_url(value: Any) -> "urlparse":
    text = "" if value is None else str(value)
    if "://" not in text:
        text = "http://" + text
    return urlparse(text)


def _url_host(value: Any, **_: Any) -> str:
    host = _parse_url(value).hostname
    if not host:
        raise TranslationError(f"no host in URL {value!r}")
    return host


def _url_port(value: Any, **_: Any) -> int:
    parsed = _parse_url(value)
    if parsed.port is not None:
        return parsed.port
    return 443 if parsed.scheme == "https" else 80


def _url_path(value: Any, **_: Any) -> str:
    return _parse_url(value).path or "/"


def _service_type_to_dns(value: Any, **kwargs: Any) -> str:
    """Map an SLP/SSDP service type to an mDNS/DNS-SD service name.

    ``service:test`` or ``urn:schemas-upnp-org:service:test:1`` become
    ``_test._tcp.local``; an optional literal argument overrides the
    transport label (default ``_tcp``).
    """
    arguments = kwargs.get("arguments", ())
    transport = arguments[0] if arguments else "_tcp"
    text = "" if value is None else str(value)
    parts = [part for part in text.split(":") if part]
    # Pick the most specific human-meaningful component.
    candidates = [part for part in parts if part not in {"service", "urn", "schemas-upnp-org"}]
    name = candidates[-2] if len(candidates) > 1 and candidates[-1].isdigit() else (
        candidates[-1] if candidates else text
    )
    name = name.strip("._") or "service"
    return f"_{name}.{transport}.local"


def _dns_to_service_type(value: Any, **kwargs: Any) -> str:
    """Map an mDNS service name back to an SLP-style service type."""
    arguments = kwargs.get("arguments", ())
    prefix = arguments[0] if arguments else "service:"
    text = "" if value is None else str(value)
    first_label = text.split(".")[0].lstrip("_")
    return f"{prefix}{first_label}"


def _prefix(value: Any, **kwargs: Any) -> str:
    arguments = kwargs.get("arguments", ())
    literal = arguments[0] if arguments else ""
    return f"{literal}{'' if value is None else value}"


def _suffix(value: Any, **kwargs: Any) -> str:
    arguments = kwargs.get("arguments", ())
    literal = arguments[0] if arguments else ""
    return f"{'' if value is None else value}{literal}"


def _constant(value: Any, **kwargs: Any) -> str:
    """Return the literal argument, ignoring the source value."""
    arguments = kwargs.get("arguments", ())
    if not arguments:
        raise TranslationError("constant() needs a literal argument")
    return arguments[0]


def _core_service_name(value: Any) -> str:
    """Extract the service keyword shared by the three discovery vocabularies.

    ``service:test`` (SLP), ``urn:schemas-upnp-org:service:test:1`` (UPnP) and
    ``_test._tcp.local`` (DNS-SD) all reduce to ``test``.
    """
    text = ("" if value is None else str(value)).strip()
    if not text:
        return "service"
    if text.startswith("_") or ".local" in text or "._" in text:
        return text.split(".")[0].lstrip("_") or "service"
    parts = [part for part in text.split(":") if part]
    candidates = [
        part for part in parts if part not in {"service", "urn", "schemas-upnp-org"}
    ]
    if not candidates:
        return "service"
    if candidates[-1].isdigit() and len(candidates) > 1:
        return candidates[-2]
    return candidates[-1]


def _slp_service_type(value: Any, **kwargs: Any) -> str:
    """Normalise any discovery service identifier into SLP form."""
    arguments = kwargs.get("arguments", ())
    prefix = arguments[0] if arguments else "service:"
    return f"{prefix}{_core_service_name(value)}"


def _upnp_service_type(value: Any, **kwargs: Any) -> str:
    """Normalise any discovery service identifier into UPnP URN form."""
    arguments = kwargs.get("arguments", ())
    version = arguments[0] if arguments else "1"
    return f"urn:schemas-upnp-org:service:{_core_service_name(value)}:{version}"


def _device_description(value: Any, **kwargs: Any) -> str:
    """Wrap a service URL into a minimal UPnP device description body."""
    url = "" if value is None else str(value)
    return (
        "<?xml version=\"1.0\"?>\n"
        "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
        f"  <URLBase>{url}</URLBase>\n"
        "  <device>\n"
        "    <friendlyName>Starlink bridged service</friendlyName>\n"
        "    <deviceType>urn:schemas-upnp-org:device:Bridged:1</deviceType>\n"
        "  </device>\n"
        "</root>\n"
    )


def _bridge_http_location(value: Any, **kwargs: Any) -> str:
    """Build an HTTP URL pointing at the bridge's own HTTP endpoint.

    The engine publishes its listen endpoints in the translation context
    under ``"bridge_endpoints"`` (a mapping from automaton/protocol name to
    ``(host, port)``).  The assignment's literal argument names which
    endpoint to use; the path defaults to ``/description.xml``.
    """
    context = kwargs.get("context", {})
    arguments = kwargs.get("arguments", ())
    endpoints = context.get("bridge_endpoints", {})
    key = arguments[0] if arguments else "HTTP"
    path = arguments[1] if len(arguments) > 1 else "/description.xml"
    endpoint = endpoints.get(key)
    if endpoint is None:
        raise TranslationError(
            f"bridge endpoint '{key}' not available in translation context"
        )
    host, port = endpoint
    return f"http://{host}:{port}{path}"


#: The built-in functions by registered name.  None of them looks at the
#: source or target message it is handed or edits its context, so a
#: generated translator may call them while it still holds the target's
#: values in locals; it folds ``constant`` outright.
BUILTIN_FUNCTIONS: Dict[str, TranslationFunction] = {
    "identity": _identity,
    "to_int": _to_int,
    "to_str": _to_str,
    "url_base": _url_base,
    "url_host": _url_host,
    "url_port": _url_port,
    "url_path": _url_path,
    "service_type_to_dns": _service_type_to_dns,
    "dns_to_service_type": _dns_to_service_type,
    "prefix": _prefix,
    "suffix": _suffix,
    "bridge_http_location": _bridge_http_location,
    "constant": _constant,
    "slp_service_type": _slp_service_type,
    "upnp_service_type": _upnp_service_type,
    "device_description": _device_description,
}
