#ifndef PTK_SERVE_CODEC_H_
#define PTK_SERVE_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/message.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk::serve {

/// Wire encodings of the typed protocol (serve/message.h). Two formats:
///
///   * kJsonLines — one JSON object per '\n'-terminated line, byte-
///     identical to the historical hand-spliced protocol: every encoded
///     response reproduces the legacy RenderResponse/ExecuteRequest
///     output exactly (%.9g doubles, field order, escapes), so existing
///     transcripts and tools/serve_smoke.golden keep matching.
///   * kBinary — length-prefixed frames (u32 little-endian byte count,
///     then the body). Integers are fixed-width little-endian, strings
///     are u32-length-prefixed bytes, doubles travel as their IEEE-754
///     bit pattern (u64) — a decoded response is bit-identical to the
///     encoded one, with no text round-trip loss.
///
/// Both formats come from one description. codec.cc lists each message
/// body once, in wire order with its JSON keys — the request fields, the
/// PostReport, each Response::Payload alternative — and four visitors
/// walk that field table: JSON write, JSON read, binary write, binary
/// read. Only the envelopes are written per format: the request op, the
/// JSON "ok"/"error" object, and the binary flags byte.
///
/// Both decoders are strict: unknown keys/ops, out-of-range fields
/// (message.h RequestLimits), truncated or oversized frames, and
/// trailing bytes inside a frame are InvalidArgument, never silently
/// ignored. Every JSON object follows one rule: keys in any order, each
/// at most once, unknown keys rejected; a response payload must carry
/// every field, while an absent request field keeps its default. Both
/// decoders are total over arbitrary bytes, and each accepts what the
/// other's encoder writes for it (fuzz/frame_fuzz.cc).
enum class WireFormat : uint8_t {
  kJsonLines = 0,
  kBinary = 1,
};

std::optional<WireFormat> WireFormatFromName(std::string_view name);

/// One framing step over a byte stream. `consumed` bytes can be dropped
/// from the front of the input once the call returns; `frame` (valid only
/// when `complete`) views into the input buffer.
struct FrameSplit {
  bool complete = false;  // false: need more bytes (consumed == 0)
  size_t consumed = 0;    // bytes of input this frame used, framing included
  std::string_view frame;  // frame body (JSON: the line, no '\n')
};

class Codec {
 public:
  /// Frames larger than this are a protocol error (poison-frame guard for
  /// the binary length prefix; applied to JSON lines for symmetry).
  static constexpr size_t kMaxFrameBytes = size_t{1} << 24;  // 16 MiB

  virtual ~Codec() = default;

  virtual WireFormat format() const = 0;

  /// Extracts the next frame from `buffer` (a prefix of the byte stream).
  /// Errors are unrecoverable framing faults (oversized frame); a
  /// transport should report them and stop reading.
  virtual util::StatusOr<FrameSplit> SplitFrame(
      std::string_view buffer) const = 0;

  /// Decodes one frame body into `*request`. On failure `request->id`
  /// still carries the client correlation tag when it was decoded before
  /// the error (so the error response can echo it — the legacy behaviour
  /// for "unknown op"); every other field is unspecified.
  virtual util::Status DecodeRequest(std::string_view frame,
                                     Request* request) const = 0;

  /// Encodes a full frame, framing included (JSON: trailing '\n';
  /// binary: length prefix). Requests must be valid per ValidateRequest.
  virtual std::string EncodeRequest(const Request& request) const = 0;
  virtual std::string EncodeResponse(const Response& response) const = 0;

  virtual util::StatusOr<Response> DecodeResponse(
      std::string_view frame) const = 0;
};

class JsonCodec final : public Codec {
 public:
  WireFormat format() const override { return WireFormat::kJsonLines; }
  util::StatusOr<FrameSplit> SplitFrame(
      std::string_view buffer) const override;
  util::Status DecodeRequest(std::string_view frame,
                             Request* request) const override;
  std::string EncodeRequest(const Request& request) const override;
  std::string EncodeResponse(const Response& response) const override;
  util::StatusOr<Response> DecodeResponse(
      std::string_view frame) const override;
};

class BinaryCodec final : public Codec {
 public:
  WireFormat format() const override { return WireFormat::kBinary; }
  util::StatusOr<FrameSplit> SplitFrame(
      std::string_view buffer) const override;
  util::Status DecodeRequest(std::string_view frame,
                             Request* request) const override;
  std::string EncodeRequest(const Request& request) const override;
  std::string EncodeResponse(const Response& response) const override;
  util::StatusOr<Response> DecodeResponse(
      std::string_view frame) const override;
};

/// Process-lifetime codec singletons (stateless, concurrency-safe).
const Codec& CodecFor(WireFormat format);

}  // namespace ptk::serve

#endif  // PTK_SERVE_CODEC_H_
