// The wire codecs (src/serve/codec.h): JSON-lines and the
// length-prefixed binary format over the typed protocol core.
//
// The load-bearing guarantee is cross-codec equivalence: any valid
// request or response round-trips through either codec to the same typed
// value — doubles bit-exactly through binary, and through JSON's %.9g
// text without drift (both sides render with the same formatter). The
// same property is enforced end-to-end by the tools/check.sh cross-codec
// transcript gate; fuzz/frame_fuzz.cc hammers the binary frame reader
// with arbitrary bytes.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/codec.h"
#include "serve/message.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk {
namespace {

using serve::Codec;
using serve::CodecFor;
using serve::FrameSplit;
using serve::Request;
using serve::Response;
using serve::WireFormat;
using util::Status;
using util::StatusOr;

const Codec& Json() { return CodecFor(WireFormat::kJsonLines); }
const Codec& Binary() { return CodecFor(WireFormat::kBinary); }

// A spread of requests covering every op and every optional field.
std::vector<Request> SampleRequests() {
  std::vector<Request> requests;
  Request create;
  create.op = serve::Op::kCreateSession;
  create.id = "c1";
  requests.push_back(create);

  Request create_semantics;
  create_semantics.op = serve::Op::kCreateSession;
  create_semantics.id = "c2";
  create_semantics.semantics = "expected_rank";
  requests.push_back(create_semantics);

  Request pairs;
  pairs.op = serve::Op::kNextPairs;
  pairs.id = "n1";
  pairs.session = "s1";
  pairs.count = 7;
  pairs.deadline_ms = 250;
  requests.push_back(pairs);

  Request post;
  post.op = serve::Op::kPostAnswers;
  post.id = "a \"quoted\"\ttag";  // exercises JSON escaping
  post.session = "s2";
  post.answers = {{2, 0}, {1, 3}, {0, 4}};
  requests.push_back(post);

  Request dist;
  dist.op = serve::Op::kDistribution;
  dist.session = "s3";
  dist.limit = 12;
  requests.push_back(dist);

  Request quality;
  quality.op = serve::Op::kQuality;
  quality.session = "s1";
  requests.push_back(quality);

  Request metrics;
  metrics.op = serve::Op::kMetrics;
  metrics.id = "m";
  requests.push_back(metrics);

  Request close;
  close.op = serve::Op::kClose;
  close.session = "s1";
  requests.push_back(close);
  return requests;
}

// A spread of responses covering every payload kind and both error
// extras. The doubles are chosen to not survive naive text round-trips
// (0.1 + 0.2, a subnormal, huge magnitudes) — binary must carry their
// exact bits, and both codecs' %.9g rendering must agree byte-for-byte.
std::vector<Response> SampleResponses() {
  std::vector<Response> responses;
  Response created;
  created.id = "c1";
  created.payload = Response::Created{"s1"};
  responses.push_back(created);

  Response pairs;
  pairs.id = "n1";
  pairs.payload =
      Response::Pairs{{{2, 1, 0.1 + 0.2}, {0, 3, 5e-324}, {4, 5, 1e300}}};
  responses.push_back(pairs);

  Response posted;
  posted.id = "a1";
  posted.payload = Response::Posted{{3, 1, 0, 42}};
  responses.push_back(posted);

  Response dist;
  dist.payload = Response::Distribution{
      {{{0, 2}, 0.8}, {{1, 2}, 0.2}}, 0.500402424242};
  responses.push_back(dist);

  Response quality;
  quality.id = "q";
  quality.payload = Response::Quality{1.0 / 3.0};
  responses.push_back(quality);

  Response metrics;
  metrics.payload =
      Response::Metrics{2, {{"s1", 128}, {"s2", 0}}, 128, true, 1, 9, 8,
                        0, 0};
  responses.push_back(metrics);

  Response closed;
  closed.id = "g";
  responses.push_back(closed);  // kClose success: None payload

  Response error;
  error.id = "h";
  error.status = Status::NotFound("unknown session 's9'");
  responses.push_back(error);

  Response partial;
  partial.id = "p";
  partial.status =
      Status::InvalidArgument("post_answers: contradictory answer");
  partial.partial = serve::PostReport{2, 1, 0, 7};
  responses.push_back(partial);

  Response shed;
  shed.id = "r";
  shed.status = Status::ResourceExhausted(
      "request queue full (32 waiting); retry after in-flight requests "
      "drain");
  shed.retry_after_ms = 5;
  responses.push_back(shed);
  return responses;
}

// Splits exactly one frame out of `encoded` and checks nothing trails it.
std::string_view OneFrame(const Codec& codec, std::string_view encoded) {
  StatusOr<FrameSplit> split = codec.SplitFrame(encoded);
  EXPECT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_TRUE(split->complete);
  EXPECT_EQ(split->consumed, encoded.size());
  return split->frame;
}

TEST(CodecTest, RequestsRoundTripThroughBothCodecs) {
  for (const Request& request : SampleRequests()) {
    for (const Codec* codec : {&Json(), &Binary()}) {
      const std::string encoded = codec->EncodeRequest(request);
      Request decoded;
      const Status status =
          codec->DecodeRequest(OneFrame(*codec, encoded), &decoded);
      ASSERT_TRUE(status.ok())
          << status.ToString() << " encoding: " << encoded;
      EXPECT_EQ(decoded, request);
    }
  }
}

TEST(CodecTest, ResponsesRoundTripThroughBothCodecs) {
  for (const Response& response : SampleResponses()) {
    // Binary round-trips the typed value exactly (doubles travel as their
    // IEEE-754 bits).
    const std::string binary = Binary().EncodeResponse(response);
    StatusOr<Response> via_binary =
        Binary().DecodeResponse(OneFrame(Binary(), binary));
    ASSERT_TRUE(via_binary.ok()) << via_binary.status().ToString();
    EXPECT_TRUE(serve::SameResponse(*via_binary, response));

    // JSON's %.9g keeps 9 significant digits, so decode(encode(x)) may
    // round the doubles — but it is byte-idempotent: re-encoding the
    // decoded value reproduces the original bytes exactly. That is the
    // transcript contract the serving gates rely on.
    const std::string json = Json().EncodeResponse(response);
    StatusOr<Response> via_json =
        Json().DecodeResponse(OneFrame(Json(), json));
    ASSERT_TRUE(via_json.ok())
        << via_json.status().ToString() << " encoding: " << json;
    EXPECT_EQ(Json().EncodeResponse(*via_json), json);
  }
}

// The cross-codec property behind the check.sh transcript gate: decode
// one codec's encoding, re-encode with the other, decode again — same
// typed value, and the final JSON bytes match a direct JSON encoding.
TEST(CodecTest, CrossCodecEquivalence) {
  for (const Request& request : SampleRequests()) {
    Request via_binary;
    ASSERT_TRUE(Binary()
                    .DecodeRequest(
                        OneFrame(Binary(), Binary().EncodeRequest(request)),
                        &via_binary)
                    .ok());
    EXPECT_EQ(Json().EncodeRequest(via_binary),
              Json().EncodeRequest(request));
  }
  for (const Response& response : SampleResponses()) {
    // A binary-served response re-encoded as JSON must match the native
    // JSON encoding byte-for-byte (the check.sh transcript gate), because
    // binary preserved the exact double bits %.9g formats from.
    StatusOr<Response> via_binary = Binary().DecodeResponse(
        OneFrame(Binary(), Binary().EncodeResponse(response)));
    ASSERT_TRUE(via_binary.ok());
    EXPECT_EQ(Json().EncodeResponse(*via_binary),
              Json().EncodeResponse(response));
  }
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  return hex;
}

// The exact wire bytes of every sample value, JSON text and binary frame
// (length prefix included, as hex). The round-trip tests above would
// still pass if an encoder and its decoder moved a field together; these
// pin the layout itself.
TEST(CodecTest, SampleEncodingsArePinned) {
  struct Pinned {
    const char* json;
    const char* binary_hex;
  };
  const Pinned kRequests[] = {
      {"{\"op\":\"create_session\",\"id\":\"c1\"}\n",
       "27000000000200000063310000000001000000000000000000000000"
       "000000000000000000000000000000"},
      {"{\"op\":\"create_session\",\"id\":\"c2\""
       ",\"semantics\":\"expected_rank\"}\n",
       "39000000000200000063320000000001000000000000000000000000"
       "000000000000000000000000000000010d0000006578706563746564"
       "5f72616e6b"},
      {"{\"op\":\"next_pairs\",\"id\":\"n1\",\"session\":\"s1\""
       ",\"count\":7,\"deadline_ms\":250}\n",
       "2900000001020000006e310200000073310700000000000000000000"
       "0000000000fa0000000000000000000000"},
      {"{\"op\":\"post_answers\""
       ",\"id\":\"a \\\"quoted\\\"\\ttag\",\"session\":\"s2\""
       ",\"answers\":[[2,0],[1,3],[0,4]]}\n",
       "4d000000020e00000061202271756f74656422097461670200000073"
       "32010000000000000000000000000000000000000000000000030000"
       "00020000000000000001000000030000000000000004000000"},
      {"{\"op\":\"distribution\",\"session\":\"s3\""
       ",\"limit\":12}\n",
       "27000000030000000002000000733301000000000000000c00000000"
       "000000000000000000000000000000"},
      {"{\"op\":\"quality\",\"session\":\"s1\"}\n",
       "27000000040000000002000000733101000000000000000000000000"
       "000000000000000000000000000000"},
      {"{\"op\":\"metrics\",\"id\":\"m\"}\n",
       "2600000005010000006d000000000100000000000000000000000000"
       "0000000000000000000000000000"},
      {"{\"op\":\"close\",\"session\":\"s1\"}\n",
       "27000000060000000002000000733101000000000000000000000000"
       "000000000000000000000000000000"},
  };
  const Pinned kResponses[] = {
      {"{\"id\":\"c1\",\"ok\":true,\"session\":\"s1\"}\n",
       "0e0000000102000000633101020000007331"},
      {"{\"id\":\"n1\",\"ok\":true,\"pairs\":[[2,1,0.3],[0,3"
       ",4.94065646e-324],[4,5,1e+300]]}\n",
       "3c00000001020000006e310203000000020000000100000034333333"
       "3333d33f000000000300000001000000000000000400000005000000"
       "9c7500883ce4377e"},
      {"{\"id\":\"a1\",\"ok\":true,\"applied\":3"
       ",\"contradictory\":1,\"degenerate\":0,\"version\":42}\n",
       "1c00000001020000006131030300000001000000000000002a000000"
       "00000000"},
      {"{\"ok\":true,\"sets\":[{\"objects\":[0,2],\"p\":0.8}"
       ",{\"objects\":[1,2],\"p\":0.2}]"
       ",\"entropy\":0.500402424}\n",
       "3a000000010000000004020000000200000000000000020000009a99"
       "99999999e93f0200000001000000020000009a9999999999c93f18ac"
       "def14b03e03f"},
      {"{\"id\":\"q\",\"ok\":true,\"quality\":0.333333333}\n",
       "0f00000001010000007105555555555555d53f"},
      {"{\"ok\":true,\"sessions_open\":2"
       ",\"session_bytes\":{\"s1\":128,\"s2\":0}"
       ",\"session_bytes_total\":128,\"queue_depth\":1"
       ",\"submitted\":9,\"executed\":8,\"shed\":0"
       ",\"deadline_misses\":0}\n",
       "5f000000010000000006020000000000000002000000020000007331"
       "80000000000000000200000073320000000000000000800000000000"
       "00000101000000000000000900000000000000080000000000000000"
       "000000000000000000000000000000"},
      {"{\"id\":\"g\",\"ok\":true}\n",
       "0700000001010000006700"},
      {"{\"id\":\"h\",\"ok\":false"
       ",\"error\":{\"code\":\"NotFound\""
       ",\"message\":\"unknown session 's9'\"}}\n",
       "200000000001000000680214000000756e6b6e6f776e207365737369"
       "6f6e202773392700"},
      {"{\"id\":\"p\",\"ok\":false"
       ",\"error\":{\"code\":\"InvalidArgument\""
       ",\"message\":\"post_answers: contradictory answer\""
       ",\"partial\":{\"applied\":2,\"contradictory\":1"
       ",\"degenerate\":0,\"version\":7}}}\n",
       "420000000201000000700122000000706f73745f616e73776572733a"
       "20636f6e747261646963746f727920616e7377657202000000010000"
       "0000000000070000000000000000"},
      {"{\"id\":\"r\",\"ok\":false"
       ",\"error\":{\"code\":\"ResourceExhausted\""
       ",\"message\":\"request queue full (32 waiting); retry after "
       "in-flight requests drain\""
       ",\"retry_after_ms\":5}}\n",
       "59000000040100000072034500000072657175657374207175657565"
       "2066756c6c202833322077616974696e67293b207265747279206166"
       "74657220696e2d666c6967687420726571756573747320647261696e"
       "050000000000000000"},
  };
  const std::vector<Request> requests = SampleRequests();
  ASSERT_EQ(requests.size(), std::size(kRequests));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(Json().EncodeRequest(requests[i]), kRequests[i].json) << i;
    EXPECT_EQ(Hex(Binary().EncodeRequest(requests[i])),
              kRequests[i].binary_hex)
        << i;
  }
  const std::vector<Response> responses = SampleResponses();
  ASSERT_EQ(responses.size(), std::size(kResponses));
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(Json().EncodeResponse(responses[i]), kResponses[i].json) << i;
    EXPECT_EQ(Hex(Binary().EncodeResponse(responses[i])),
              kResponses[i].binary_hex)
        << i;
  }

  // codec.h: a failed decode still carries the id when it was decoded
  // before the error, so the error response can echo it.
  for (const char* line :
       {R"({"op":"quality","id":"t1","count":"x"})",
        R"({"op":"quality","id":"t1",)"}) {
    Request request;
    EXPECT_FALSE(Json().DecodeRequest(line, &request).ok()) << line;
    EXPECT_EQ(request.id, "t1") << line;
  }
}

TEST(CodecTest, JsonRendersLegacyErrorExtras) {
  Response shed;
  shed.id = "r";
  shed.status = Status::ResourceExhausted("request queue full (4 waiting)");
  shed.retry_after_ms = 5;
  EXPECT_EQ(Json().EncodeResponse(shed),
            "{\"id\":\"r\",\"ok\":false,\"error\":{\"code\":"
            "\"ResourceExhausted\",\"message\":\"request queue full "
            "(4 waiting)\",\"retry_after_ms\":5}}\n");

  Response partial;
  partial.id = "p";
  partial.status = Status::InvalidArgument("contradictory answer");
  partial.partial = serve::PostReport{2, 1, 0, 7};
  EXPECT_EQ(Json().EncodeResponse(partial),
            "{\"id\":\"p\",\"ok\":false,\"error\":{\"code\":"
            "\"InvalidArgument\",\"message\":\"contradictory answer\","
            "\"partial\":{\"applied\":2,\"contradictory\":1,"
            "\"degenerate\":0,\"version\":7}}}\n");
}

// Both found by fuzz/frame_fuzz.cc: JSON decode must stay symmetric with
// encode so decode(encode(decode(x))) never fails on accepted input.
TEST(CodecTest, JsonDecodeIsSymmetricWithEncodeOnEdgeCases) {
  // JsonEscape renders control characters as \u00xx; the parser must
  // read them back (or a tag with a 0x08 byte re-encodes undecodably).
  Request request;
  request.op = serve::Op::kQuality;
  request.session = "s1";
  ASSERT_TRUE(
      Json()
          .DecodeRequest("{\"op\":\"quality\",\"session\":\"s1\","
                         "\"id\":\"a\\u0008b\"}",
                         &request)
          .ok());
  EXPECT_EQ(request.id, std::string("a\bb"));
  const std::string encoded = Json().EncodeRequest(request);
  Request again;
  ASSERT_TRUE(Json()
                  .DecodeRequest(std::string_view(encoded).substr(
                                     0, encoded.size() - 1),
                                 &again)
                  .ok());
  EXPECT_EQ(again, request);

  // A negative version would wrap to 2^64-1 in the unsigned field and
  // re-encode as an integer no response parser accepts; reject it.
  EXPECT_FALSE(Json()
                   .DecodeResponse("{\"id\":\"c\",\"ok\":true,\"applied\":1,"
                                   "\"contradictory\":0,\"degenerate\":0,"
                                   "\"version\":-1}")
                   .ok());
  EXPECT_FALSE(Json()
                   .DecodeResponse("{\"id\":\"c\",\"ok\":false,\"error\":"
                                   "{\"code\":\"InvalidArgument\","
                                   "\"message\":\"m\",\"partial\":"
                                   "{\"applied\":0,\"contradictory\":0,"
                                   "\"degenerate\":0,\"version\":-2}}}")
                   .ok());
}

// One rule for every JSON object: keys in any order, each at most once,
// unknown keys rejected. Every response payload field is required (the
// metrics scheduler block all or nothing); request fields keep their
// defaults when absent.
TEST(CodecTest, JsonObjectsTakeEachKeyAtMostOnce) {
  const char* const bad_responses[] = {
      R"({"ok":true,"applied":1,"applied":1,"applied":1,"applied":1})",
      R"({"ok":true,"sessions_open":1,"session_bytes":{},)"
      R"("session_bytes_total":0,"shed":1,"shed":1,"shed":1,"shed":1,)"
      R"("shed":1})",
      R"({"ok":true,"sessions_open":3})",
      R"({"ok":false,"ok":true,"quality":0.5})",
      R"({"id":"a","id":"b","ok":true})",
      R"({"ok":true,"quality":0.5,"quality":0.25})",
      R"({"ok":true,"applied":1,"contradictory":0,"degenerate":0})",
      R"({"ok":true,"sets":[]})",
      R"({"ok":true,"sets":[{"objects":[1],"objects":[1],"p":1}],)"
      R"("entropy":0})",
      R"({"ok":false,"error":{"code":"NotFound","code":"NotFound",)"
      R"("message":"m"}})",
      R"({"ok":false,"error":{"code":"Internal","message":"m",)"
      R"("partial":{"applied":1,"contradictory":0,"degenerate":0,)"
      R"("version":1,"version":2}}})",
  };
  for (const char* line : bad_responses) {
    EXPECT_FALSE(Json().DecodeResponse(line).ok()) << line;
  }
  const char* const bad_requests[] = {
      R"({"op":"quality","op":"metrics"})",
      R"({"op":"next_pairs","session":"s1","count":2,"count":3})",
      R"({"op":"quality","session":"s1","session":"s2"})",
  };
  for (const char* line : bad_requests) {
    Request request;
    EXPECT_EQ(Json().DecodeRequest(line, &request).code(),
              Status::Code::kInvalidArgument)
        << line;
  }

  // Any order is fine, nested objects included.
  StatusOr<Response> posted = Json().DecodeResponse(
      R"({"version":3,"degenerate":0,"ok":true,"contradictory":0,)"
      R"("applied":1,"id":"z"})");
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();
  EXPECT_EQ(posted->id, "z");
  EXPECT_EQ(std::get<Response::Posted>(posted->payload).report,
            (serve::PostReport{1, 0, 0, 3}));
  StatusOr<Response> dist = Json().DecodeResponse(
      R"({"ok":true,"entropy":0,"sets":[{"p":1,"objects":[4,2]}]})");
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  const auto& sets = std::get<Response::Distribution>(dist->payload).sets;
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].objects, (std::vector<model::ObjectId>{4, 2}));
  Request request;
  ASSERT_TRUE(
      Json().DecodeRequest(R"({"session":"s1","op":"next_pairs"})", &request)
          .ok());
  EXPECT_EQ(request.count, 1);
}

// The JSON decoder reads every u64 the encoder writes: a version of 2^63
// or more arriving over binary must survive a JSON re-encode (what
// ptk_wire decode-responses does).
TEST(CodecTest, JsonReadsEveryU64ItWrites) {
  for (const uint64_t version :
       {uint64_t{1} << 63, std::numeric_limits<uint64_t>::max()}) {
    Response posted;
    posted.payload = Response::Posted{{1, 0, 0, version}};
    Response partial;
    partial.status = Status::InvalidArgument("contradictory answer");
    partial.partial = serve::PostReport{1, 0, 0, version};
    for (const Response& response : {posted, partial}) {
      StatusOr<Response> via_binary = Binary().DecodeResponse(
          OneFrame(Binary(), Binary().EncodeResponse(response)));
      ASSERT_TRUE(via_binary.ok()) << via_binary.status().ToString();
      const std::string json = Json().EncodeResponse(*via_binary);
      StatusOr<Response> via_json =
          Json().DecodeResponse(OneFrame(Json(), json));
      ASSERT_TRUE(via_json.ok())
          << via_json.status().ToString() << " encoding: " << json;
      EXPECT_TRUE(serve::SameResponse(*via_json, response)) << json;
    }
  }
}

TEST(CodecTest, BinaryCarriesDoublesBitExactly) {
  Response response;
  response.payload = Response::Quality{std::nextafter(0.3, 1.0)};
  StatusOr<Response> decoded = Binary().DecodeResponse(
      OneFrame(Binary(), Binary().EncodeResponse(response)));
  ASSERT_TRUE(decoded.ok());
  const double in = std::get<Response::Quality>(response.payload).quality;
  const double out = std::get<Response::Quality>(decoded->payload).quality;
  uint64_t in_bits = 0;
  uint64_t out_bits = 0;
  std::memcpy(&in_bits, &in, sizeof(in));
  std::memcpy(&out_bits, &out, sizeof(out));
  EXPECT_EQ(in_bits, out_bits);
}

TEST(CodecTest, BinaryFramingIsIncrementalAndStrict) {
  Request request;
  request.op = serve::Op::kPostAnswers;
  request.id = "x";
  request.session = "s1";
  request.answers = {{0, 1}};
  const std::string encoded = Binary().EncodeRequest(request);

  // Feeding the frame one byte at a time: incomplete until the last byte.
  for (size_t n = 0; n < encoded.size(); ++n) {
    StatusOr<FrameSplit> split =
        Binary().SplitFrame(std::string_view(encoded).substr(0, n));
    ASSERT_TRUE(split.ok());
    EXPECT_FALSE(split->complete) << n;
    EXPECT_EQ(split->consumed, 0u);
  }
  EXPECT_TRUE(Binary().SplitFrame(encoded)->complete);

  // A truncated body inside a correctly framed payload is an error.
  std::string_view frame = OneFrame(Binary(), encoded);
  for (size_t n = 0; n < frame.size(); ++n) {
    Request decoded;
    EXPECT_EQ(Binary().DecodeRequest(frame.substr(0, n), &decoded).code(),
              Status::Code::kInvalidArgument)
        << n;
  }

  // Trailing bytes after a well-formed request are an error.
  Request decoded;
  std::string trailing(frame);
  trailing.push_back('\0');
  EXPECT_EQ(Binary().DecodeRequest(trailing, &decoded).code(),
            Status::Code::kInvalidArgument);

  // An oversized length prefix is an unrecoverable framing fault.
  std::string oversized(4, '\xff');
  EXPECT_EQ(Binary().SplitFrame(oversized).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(CodecTest, BinaryUnknownOpStillEchoesId) {
  Request request;
  request.op = serve::Op::kQuality;
  request.id = "tag9";
  request.session = "s1";
  std::string encoded = Binary().EncodeRequest(request);
  encoded[4] = '\x63';  // op byte (first body byte) -> unknown op 99
  Request decoded;
  const Status status =
      Binary().DecodeRequest(OneFrame(Binary(), encoded), &decoded);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(decoded.id, "tag9");
}

TEST(CodecTest, ValidateRequestClampsUpperBounds) {
  Request request;
  request.op = serve::Op::kNextPairs;
  request.session = "s1";
  request.count = serve::RequestLimits::kMaxCount;
  EXPECT_TRUE(serve::ValidateRequest(request).ok());
  request.count += 1;
  EXPECT_EQ(serve::ValidateRequest(request).code(),
            Status::Code::kInvalidArgument);

  request.count = 1;
  request.limit = serve::RequestLimits::kMaxLimit + 1;
  EXPECT_EQ(serve::ValidateRequest(request).code(),
            Status::Code::kInvalidArgument);

  request.limit = 0;
  request.deadline_ms = serve::RequestLimits::kMaxDeadlineMs + 1;
  EXPECT_EQ(serve::ValidateRequest(request).code(),
            Status::Code::kInvalidArgument);

  request.deadline_ms = 0;
  request.id.assign(serve::RequestLimits::kMaxTagBytes + 1, 'x');
  EXPECT_EQ(serve::ValidateRequest(request).code(),
            Status::Code::kInvalidArgument);

  // Both decoders apply the same clamps (the JSON path is covered in
  // serve_test's strict-parse list; the binary path here).
  request = Request{};
  request.op = serve::Op::kNextPairs;
  request.session = "s1";
  request.count = serve::RequestLimits::kMaxCount + 1;
  Request decoded;
  EXPECT_EQ(Binary()
                .DecodeRequest(OneFrame(Binary(),
                                        Binary().EncodeRequest(request)),
                               &decoded)
                .code(),
            Status::Code::kInvalidArgument);
}

// The create_session `semantics` field: absent must encode exactly the
// pre-field bytes in both formats (old clients and every committed golden
// keep round-tripping), present must survive both codecs, and both
// decoders must reject it on any other op.
TEST(CodecTest, SemanticsFieldIsOptionalAndCreateOnly) {
  Request plain;
  plain.op = serve::Op::kCreateSession;
  plain.id = "c1";
  // Absent: the JSON object carries no "semantics" key and the binary
  // frame carries no trailer (the old fixed-field frame, byte-identical).
  EXPECT_EQ(Json().EncodeRequest(plain),
            "{\"op\":\"create_session\",\"id\":\"c1\"}\n");
  const std::string plain_binary = Binary().EncodeRequest(plain);
  Request plain_decoded;
  ASSERT_TRUE(Binary()
                  .DecodeRequest(OneFrame(Binary(), plain_binary),
                                 &plain_decoded)
                  .ok());
  EXPECT_EQ(plain_decoded, plain);
  EXPECT_TRUE(plain_decoded.semantics.empty());

  Request with;
  with.op = serve::Op::kCreateSession;
  with.id = "c2";
  with.semantics = "expected_rank";
  EXPECT_EQ(Json().EncodeRequest(with),
            "{\"op\":\"create_session\",\"id\":\"c2\","
            "\"semantics\":\"expected_rank\"}\n");
  for (const Codec* codec : {&Json(), &Binary()}) {
    Request decoded;
    ASSERT_TRUE(codec
                    ->DecodeRequest(
                        OneFrame(*codec, codec->EncodeRequest(with)),
                        &decoded)
                    .ok());
    EXPECT_EQ(decoded, with);
  }
  // The trailer costs exactly flags byte + length-prefixed string.
  EXPECT_EQ(Binary().EncodeRequest(with).size(),
            Binary().EncodeRequest(plain).size() + 1 + 4 +
                with.semantics.size());

  // create_session-only: both decode paths run ValidateRequest.
  Request wrong_op;
  EXPECT_EQ(Json()
                .DecodeRequest("{\"op\":\"quality\",\"session\":\"s1\","
                               "\"semantics\":\"entropy\"}",
                               &wrong_op)
                .code(),
            Status::Code::kInvalidArgument);
  Request quality;
  quality.op = serve::Op::kQuality;
  quality.session = "s1";
  quality.semantics = "entropy";
  EXPECT_EQ(serve::ValidateRequest(quality).code(),
            Status::Code::kInvalidArgument);
  Request binary_decoded;
  EXPECT_EQ(Binary()
                .DecodeRequest(
                    OneFrame(Binary(), Binary().EncodeRequest(quality)),
                    &binary_decoded)
                .code(),
            Status::Code::kInvalidArgument);
}

// The binary trailer is strict: unknown flag bits and a flags byte that
// announces nothing are both rejected (the encoder never writes either,
// so tolerating them would silently accept trailing garbage).
TEST(CodecTest, BinaryRequestTrailerIsStrict) {
  Request create;
  create.op = serve::Op::kCreateSession;
  create.id = "c1";
  const std::string frame =
      std::string(OneFrame(Binary(), Binary().EncodeRequest(create)));

  std::string empty_trailer = frame;
  empty_trailer.push_back('\0');  // flags byte announcing no fields
  Request decoded;
  Status status = Binary().DecodeRequest(empty_trailer, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("empty request trailer"),
            std::string::npos)
      << status.ToString();

  std::string unknown_flag = frame;
  unknown_flag.push_back('\x02');  // bit 1 is unassigned
  status = Binary().DecodeRequest(unknown_flag, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown request flags"),
            std::string::npos)
      << status.ToString();

  // A flagged-but-truncated semantics string is a truncation error, not
  // an accept.
  std::string truncated = frame;
  truncated.push_back('\x01');
  EXPECT_EQ(Binary().DecodeRequest(truncated, &decoded).code(),
            Status::Code::kInvalidArgument);
}

TEST(CodecTest, DecodersAreTotalOverArbitraryBytes) {
  // A smoke version of fuzz/frame_fuzz.cc: deterministic mutations of a
  // valid frame never crash, and every accepted mutation re-encodes.
  Request request;
  request.op = serve::Op::kPostAnswers;
  request.id = "f";
  request.session = "s1";
  request.answers = {{0, 1}, {2, 3}};
  const std::string frame =
      std::string(OneFrame(Binary(), Binary().EncodeRequest(request)));
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int delta : {1, 0x40, 0xff}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] + delta);
      Request decoded;
      if (Binary().DecodeRequest(mutated, &decoded).ok()) {
        Request again;
        const std::string reencoded = Binary().EncodeRequest(decoded);
        ASSERT_TRUE(Binary()
                        .DecodeRequest(OneFrame(Binary(), reencoded),
                                       &again)
                        .ok());
        EXPECT_EQ(again, decoded);
      }
    }
  }
}

}  // namespace
}  // namespace ptk
