"""Parse-boundary fuzzing: malformed input is a clean rejection, never a
crash.

Every byte a client sends reaches the service through three entry
points: ``_read_request`` (the HTTP framing), ``split_envelope`` (the
service fields) and ``request_from_dict`` (the compile request).  For
any input each must either return a value or raise the one exception
type its caller turns into a 400 (or, for the framing, a closed
connection).  Anything else escapes as a 500 or kills the handler.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.batch import CompileRequest, request_from_dict
from repro.service.server import (
    Envelope,
    _BadRequest,
    _ConnectionReader,
    _read_request,
    split_envelope,
)

REQUEST_FIELDS = ("compiler", "benchmark", "n_qubits", "device", "gateset",
                  "seed", "qaoa_degree", "parameters")
ENVELOPE_FIELDS = ("tenant", "priority", "timeout_s")

# Everything ``json.loads`` can produce, including the NaN/Infinity
# literals and integers too large for a float.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=10**300, max_value=10**400).map(lambda v: -v),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=20))
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10)
field_names = st.one_of(st.sampled_from(REQUEST_FIELDS + ENVELOPE_FIELDS),
                        st.text(max_size=12))
payloads = st.dictionaries(field_names, json_values, max_size=8)
envelopes = st.dictionaries(st.sampled_from(ENVELOPE_FIELDS), json_scalars,
                            max_size=3)
# parameters objects that mostly get past the type checks
parameter_objects = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.integers(min_value=-10**400, max_value=10**400),
              json_scalars),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
def test_request_from_dict_returns_or_raises_value_error(payload):
    try:
        request = request_from_dict(payload)
    except ValueError:
        return
    assert isinstance(request, CompileRequest)


@settings(max_examples=200, deadline=None)
@given(parameters=parameter_objects)
def test_parameters_return_or_raise_value_error(parameters):
    try:
        request = request_from_dict({"parameters": parameters})
    except ValueError:
        return
    assert all(isinstance(value, float) for _, value in request.parameters)


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(payloads, envelopes),
       defaults=st.builds(Envelope,
                          priority=st.integers(-3, 3),
                          timeout_s=st.none() | st.floats(0.1, 60.0)))
def test_split_envelope_returns_or_raises_value_error(payload, defaults):
    try:
        rest, envelope = split_envelope(payload, defaults)
    except ValueError:
        return
    assert not set(rest) & set(ENVELOPE_FIELDS)
    assert envelope.timeout_s is None or 0 < envelope.timeout_s < float("inf")


def _parse(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(_ConnectionReader(reader))
    return asyncio.run(run())


request_lines = st.one_of(
    st.sampled_from([b"POST /compile HTTP/1.1", b"GET /healthz HTTP/1.0",
                     b"POST /batch HTTP/1.1", b"", b"BAD"]),
    st.binary(max_size=40))
length_values = st.one_of(
    st.integers(-100, 200).map(lambda n: str(n).encode()),
    st.sampled_from([b"", b"abc", b" 12 ", b"+3", b"-0", b"1_0",
                     b"99999999999999999999"]),
    st.binary(max_size=8))
header_lines = st.lists(
    st.one_of(st.tuples(st.just(b"Content-Length"), length_values)
              .map(lambda kv: kv[0] + b": " + kv[1]),
              st.binary(max_size=30)),
    max_size=4)
newlines = st.sampled_from([b"\r\n", b"\n"])
raw_requests = st.one_of(
    st.builds(lambda line, headers, nl, body:
              nl.join([line, *headers]) + nl + nl + body,
              request_lines, header_lines, newlines, st.binary(max_size=60)),
    st.binary(max_size=200))


@settings(max_examples=300, deadline=None)
@given(data=raw_requests)
def test_read_request_returns_or_rejects(data):
    try:
        _, _, _, headers, body = _parse(data)
    except (_BadRequest, ConnectionError, asyncio.IncompleteReadError):
        return
    # a parsed request consumed exactly its declared, non-negative body
    assert len(body) == int(headers.get("content-length", "0")) >= 0

