// Fuzz target for the binary wire format's readers (src/serve/codec.h):
// SplitFrame, DecodeRequest, and DecodeResponse must be total over
// arbitrary bytes — the server points them at an untrusted socket.
// Invariants:
//   * SplitFrame never reads out of bounds: it either wants more bytes
//     (consumed == 0), yields a frame fully inside the input, or rejects
//     an oversized length prefix — and it is deterministic.
//   * DecodeRequest accepts only requests that ValidateRequest admits,
//     and every accepted request round-trips through EncodeRequest to an
//     equal value (the codec is its own oracle).
//   * DecodeResponse acceptance round-trips the same way, bit-exactly in
//     the payload doubles (SameResponse compares them bitwise).
//   * The JSON codec is fed the same bytes: one line of arbitrary garbage
//     must decode-or-reject without crashing, and acceptance round-trips
//     byte-identically through its encoder.
//   * Cross-codec: the codecs are checked against each other, not only
//     against themselves. A request either decoder accepts round-trips
//     through the other codec to an equal Request; a response the binary
//     decoder accepts has a JSON encoding that decodes and re-encodes to
//     the same bytes (what `ptk_wire decode-responses` relies on).

#include <cstdint>

#include <string>
#include <string_view>

#include "fuzz_require.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "util/status.h"
#include "util/statusor.h"

namespace {

using ptk::serve::Codec;
using ptk::serve::Request;
using ptk::serve::Response;

// The one frame of an encoding (as a transport would split it).
std::string_view RequireOneFrame(const Codec& codec,
                                 const std::string& encoded) {
  ptk::util::StatusOr<ptk::serve::FrameSplit> split =
      codec.SplitFrame(encoded);
  PTK_FUZZ_REQUIRE(split.ok() && split->complete);
  PTK_FUZZ_REQUIRE(split->consumed == encoded.size());
  return split->frame;
}

// An accepted request is valid, and round-trips through both codecs to
// an equal value.
void RequireRequestRoundTrips(const Request& request) {
  PTK_FUZZ_REQUIRE(ptk::serve::ValidateRequest(request).ok());
  for (const ptk::serve::WireFormat format :
       {ptk::serve::WireFormat::kBinary, ptk::serve::WireFormat::kJsonLines}) {
    const Codec& codec = ptk::serve::CodecFor(format);
    Request again;
    PTK_FUZZ_REQUIRE(
        codec
            .DecodeRequest(RequireOneFrame(codec, codec.EncodeRequest(request)),
                           &again)
            .ok());
    PTK_FUZZ_REQUIRE(again == request);
  }
}

// JSON doubles round-trip as bytes, not bits: re-encoding the decoded
// value must reproduce the encoder's canonical form exactly (encode .
// decode is idempotent on its own output).
void RequireJsonResponseRoundTrips(const Response& response) {
  const Codec& json = ptk::serve::CodecFor(ptk::serve::WireFormat::kJsonLines);
  const std::string once = json.EncodeResponse(response);
  ptk::util::StatusOr<Response> stable =
      json.DecodeResponse(RequireOneFrame(json, once));
  PTK_FUZZ_REQUIRE(stable.ok());
  PTK_FUZZ_REQUIRE(json.EncodeResponse(*stable) == once);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const Codec& binary = ptk::serve::CodecFor(ptk::serve::WireFormat::kBinary);
  const Codec& json = ptk::serve::CodecFor(ptk::serve::WireFormat::kJsonLines);

  // Walk the whole input as a frame stream, the way the server does.
  std::string_view rest = bytes;
  while (!rest.empty()) {
    ptk::util::StatusOr<ptk::serve::FrameSplit> split =
        binary.SplitFrame(rest);
    if (!split.ok() || !split->complete) break;
    PTK_FUZZ_REQUIRE(split->consumed > 0);
    PTK_FUZZ_REQUIRE(split->consumed <= rest.size());
    PTK_FUZZ_REQUIRE(split->frame.size() <= split->consumed);

    Request request;
    if (binary.DecodeRequest(split->frame, &request).ok()) {
      RequireRequestRoundTrips(request);
    }
    ptk::util::StatusOr<Response> response =
        binary.DecodeResponse(split->frame);
    if (response.ok()) {
      // Bit-exact through binary (SameResponse compares doubles bitwise),
      // and representable in JSON.
      ptk::util::StatusOr<Response> again = binary.DecodeResponse(
          RequireOneFrame(binary, binary.EncodeResponse(*response)));
      PTK_FUZZ_REQUIRE(again.ok());
      PTK_FUZZ_REQUIRE(ptk::serve::SameResponse(*again, *response));
      RequireJsonResponseRoundTrips(*response);
    }
    rest.remove_prefix(split->consumed);
  }

  // Same bytes as one JSON line (strip at the first newline, the line
  // framing the JSON codec would apply).
  const std::string_view line = bytes.substr(0, bytes.find('\n'));
  Request request;
  if (json.DecodeRequest(line, &request).ok()) {
    RequireRequestRoundTrips(request);
  }
  ptk::util::StatusOr<Response> response = json.DecodeResponse(line);
  if (response.ok()) RequireJsonResponseRoundTrips(*response);
  return 0;
}
