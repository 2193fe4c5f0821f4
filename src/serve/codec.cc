#include "serve/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "data/field_parse.h"
#include "obs/export.h"

namespace ptk::serve {

namespace {

util::Status ParseError(std::string_view what, std::string_view around) {
  return util::Status::InvalidArgument(
      "protocol: " + std::string(what) + " near " +
      data::internal::Excerpt(around));
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Error statuses by code: util::Status::Code's value, which is also the
/// binary status byte. Code 0 is OK, which no error response carries.
using StatusFactory = util::Status (*)(std::string);
constexpr StatusFactory kErrorStatus[] = {
    nullptr,
    &util::Status::InvalidArgument,
    &util::Status::NotFound,
    &util::Status::ResourceExhausted,
    &util::Status::IoError,
    &util::Status::Internal,
    &util::Status::FailedPrecondition,
    &util::Status::Cancelled,
    &util::Status::DeadlineExceeded,
};
static_assert(std::size(kErrorStatus) ==
              static_cast<size_t>(util::Status::Code::kDeadlineExceeded) + 1);

/// Stores `wide` as an object id (never negative, at most INT32_MAX), or
/// sets `*status` to the range error.
void ToObjectId(int64_t wide, model::ObjectId* id, util::Status* status) {
  if (wide < 0 || wide > std::numeric_limits<model::ObjectId>::max()) {
    *status = util::Status::InvalidArgument("protocol: object id out of range");
    return;
  }
  *id = static_cast<model::ObjectId>(wide);
}

/// Single-line JSON reader for the protocol's value subset (strings with
/// the common escapes, 64-bit integers, %.9g doubles, true/false). Strict:
/// every syntax deviation is an error with the offending excerpt. Moved
/// here from the legacy protocol.cc — the codec is the only boundary that
/// touches wire text now.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ == text_.size();
  }

  std::string_view Rest() const { return text_.substr(pos_); }

  util::Status ParseString(std::string* out) {
    if (!Consume('"')) return ParseError("expected string", Rest());
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return util::Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ == text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // \uXXXX, as JsonEscape emits for control characters. Decoded
          // to UTF-8 so decode(encode(s)) == s for every byte string;
          // surrogate halves are rejected rather than paired.
          if (text_.size() - pos_ < 4) {
            return ParseError("truncated \\u escape", text_.substr(pos_ - 2));
          }
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return ParseError("bad \\u escape digit",
                                text_.substr(pos_ - 1));
            }
          }
          if (cp >= 0xd800 && cp <= 0xdfff) {
            return ParseError("surrogate in \\u escape",
                              text_.substr(pos_ - 6));
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return ParseError("unsupported string escape",
                            text_.substr(pos_ - 2));
      }
    }
    return ParseError("unterminated string", text_);
  }

  /// A decimal integer over the full range of T (int64_t or uint64_t).
  template <typename T>
  util::Status ParseInt(T* out) {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    // Unsigned fields read "-0" as 0, as the signed ones do.
    if (std::is_unsigned_v<T> && token.starts_with('-') &&
        token.find_first_not_of('0', 1) == std::string_view::npos) {
      token.remove_prefix(1);
    }
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    if (ec != std::errc{} || ptr != end) {
      return ParseError("expected integer", text_.substr(start));
    }
    return util::Status::OK();
  }

  util::Status ParseDouble(double* out) {
    SkipWs();
    const size_t start = pos_;
    // Token scan covers every %.9g spelling: sign, digits, '.', exponent,
    // and the "inf"/"nan" words.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                           c == '.' || (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z');
      if (!numeric) break;
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!data::internal::ParseDoubleField(token, out)) {
      return ParseError("expected number", text_.substr(start));
    }
    return util::Status::OK();
  }

  util::Status ParseBool(bool* out) {
    SkipWs();
    if (Rest().substr(0, 4) == "true") {
      pos_ += 4;
      *out = true;
      return util::Status::OK();
    }
    if (Rest().substr(0, 5) == "false") {
      pos_ += 5;
      *out = false;
      return util::Status::OK();
    }
    return ParseError("expected true/false", Rest());
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// The field table
//
// Each message body is described once below, in wire order, with the
// JSON key of every field: the request fields after the op, the PostReport,
// and each Response::Payload alternative. Four visitors walk these tables
// — JsonOut, JsonIn, BinaryOut, BinaryIn — so both codecs encode and
// decode the same fields in the same order by construction. Only the
// envelopes are written per codec: the request op, the JSON "ok"/"error"
// object, and the binary flags byte with its status and extras.
//
// A visitor has one method per field kind; `key` names the JSON member.
//   kind     C++ field         JSON          binary (the value alone)
//   Str      string            string        u32 length + bytes
//   I64      int64             integer       i64
//   U32      int               integer       u32
//   U64      uint64            integer       u64
//   F64      double            %.9g          IEEE-754 bits as u64
//   Oid      object id         integer       u32, at most INT32_MAX
//   List     vector            array/object  u32 count + the elements
//   Group    flag + fields     all or none   u8 flag (0/1) + the fields
//   Trailer  string            string        [u8 flags (bit0), str]
// A List names how JSON spells its elements (Shape); its element type has
// a table of its own. JSON writes every field of a response; a request
// field equal to its default (I64's `dflt`, else empty) is left out, and
// a decoded request keeps the default of every field that is absent.

/// How a List's elements look in JSON. In binary they are just their
/// fields in order.
enum class Shape {
  kTuples,   // [[a,b],...]: each element an array of its fields
  kRecords,  // [{"k":v,...},...]: each element an object
  kScalars,  // [a,...]: each element one bare value
  kMap,      // {"name":value,...}: each element a (string, value) pair
};

constexpr int64_t kNoLimit = std::numeric_limits<uint32_t>::max();

template <typename U, typename T>
concept Like = std::same_as<std::remove_const_t<U>, T>;

using Answer = std::pair<model::ObjectId, model::ObjectId>;

void Fields(auto& v, Like<model::ObjectId> auto& id) { v.Oid("id", id); }

void Fields(auto& v, Like<Answer> auto& answer) {
  v.Oid("smaller", answer.first);
  v.Oid("larger", answer.second);
}

void Fields(auto& v, Like<Request> auto& r) {
  v.Str("id", r.id);
  v.Str("session", r.session);
  v.I64("count", r.count, 1);
  v.I64("limit", r.limit);
  v.I64("deadline_ms", r.deadline_ms);
  v.List("answers", r.answers, Shape::kTuples, RequestLimits::kMaxAnswers);
  v.Trailer("semantics", r.semantics);
}

void Fields(auto& v, Like<PostReport> auto& r) {
  v.U32("applied", r.applied);
  v.U32("contradictory", r.contradictory);
  v.U32("degenerate", r.degenerate);
  v.U64("version", r.version);
}

void Fields(auto& v, Like<Response::PairScore> auto& pair) {
  v.Oid("a", pair.a);
  v.Oid("b", pair.b);
  v.F64("ei", pair.ei);
}

void Fields(auto& v, Like<Response::RankedSet> auto& set) {
  v.List("objects", set.objects, Shape::kScalars);
  v.F64("p", set.p);
}

void Fields(auto& v, Like<Response::SessionBytes> auto& entry) {
  v.Str("session", entry.session);
  v.I64("bytes", entry.bytes);
}

// The payload alternatives. The binary payload kind byte is the variant
// index; JSON writes the fields into the response object itself, and a
// decoder tells the alternative by the first payload key it meets (no two
// alternatives share a key).
void Fields(auto&, Like<Response::None> auto&) {}

void Fields(auto& v, Like<Response::Created> auto& created) {
  v.Str("session", created.session);
}

void Fields(auto& v, Like<Response::Pairs> auto& pairs) {
  v.List("pairs", pairs.pairs, Shape::kTuples, RequestLimits::kMaxCount);
}

void Fields(auto& v, Like<Response::Posted> auto& posted) {
  Fields(v, posted.report);
}

void Fields(auto& v, Like<Response::Distribution> auto& dist) {
  v.List("sets", dist.sets, Shape::kRecords, RequestLimits::kMaxLimit);
  v.F64("entropy", dist.entropy);
}

void Fields(auto& v, Like<Response::Quality> auto& quality) {
  v.F64("quality", quality.quality);
}

void Fields(auto& v, Like<Response::Metrics> auto& m) {
  v.I64("sessions_open", m.sessions_open);
  v.List("session_bytes", m.session_bytes, Shape::kMap);
  v.I64("session_bytes_total", m.session_bytes_total);
  v.Group("has_scheduler", m.has_scheduler, [&] {
    v.I64("queue_depth", m.queue_depth);
    v.I64("submitted", m.submitted);
    v.I64("executed", m.executed);
    v.I64("shed", m.shed);
    v.I64("deadline_misses", m.deadline_misses);
  });
}

/// Sets `*payload` to a default value of alternative `index`; false when
/// there is no such alternative.
bool EmplacePayload(Response::Payload* payload, size_t index) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return ((index == I && (payload->emplace<I>(), true)) || ...);
  }(std::make_index_sequence<std::variant_size_v<Response::Payload>>());
}

// ---------------------------------------------------------------------------
// The four visitors

/// JSON write: object members `"key":value` (records), or bare values
/// with `sep` between them (tuples, map entries, scalars). The goldens
/// and every recorded transcript pin its output byte for byte.
class JsonOut {
 public:
  JsonOut(std::string& out, Shape shape)
      : out_(out),
        keyed_(shape == Shape::kRecords),
        sep_(shape == Shape::kMap ? ':' : ',') {}

  bool first = true;            // no separator before the next field
  bool omit_defaults = false;   // requests: leave out default fields

  void Str(std::string_view key, std::string_view v) {
    if (omit_defaults && v.empty()) return;
    Key(key);
    out_ += '"';
    out_ += obs::JsonEscape(v);
    out_ += '"';
  }
  void I64(std::string_view key, int64_t v, int64_t dflt = 0) {
    if (omit_defaults && v == dflt) return;
    Int(key, v);
  }
  void U32(std::string_view key, int v) { Int(key, v); }
  void U64(std::string_view key, uint64_t v) { Int(key, v); }
  void F64(std::string_view key, double v) {
    Key(key);
    out_ += FormatDouble(v);
  }
  void Oid(std::string_view key, model::ObjectId v) { Int(key, v); }
  template <typename T>
  void List(std::string_view key, const std::vector<T>& list, Shape shape,
            int64_t = kNoLimit) {
    if (omit_defaults && list.empty()) return;
    Key(key);
    out_ += shape == Shape::kMap ? '{' : '[';
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out_ += ',';
      if (shape == Shape::kTuples) out_ += '[';
      if (shape == Shape::kRecords) out_ += '{';
      JsonOut element(out_, shape);
      Fields(element, list[i]);
      if (shape == Shape::kTuples) out_ += ']';
      if (shape == Shape::kRecords) out_ += '}';
    }
    out_ += shape == Shape::kMap ? '}' : ']';
  }
  void Group(std::string_view, bool present, const auto& fields) {
    if (present) fields();
  }
  void Trailer(std::string_view key, std::string_view v) { Str(key, v); }

 private:
  void Int(std::string_view key, auto v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void Key(std::string_view key) {
    if (!first) out_ += sep_;
    first = false;
    if (!keyed_) return;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string& out_;
  const bool keyed_;
  const char sep_;
};

/// Reads one JSON object; `member(key)` parses the value of each member.
/// Keys may come in any order, each at most once.
template <typename Member>
util::Status ReadObject(JsonReader& in, const Member& member) {
  if (!in.Consume('{')) return ParseError("expected object", in.Rest());
  // The keys read so far, off the heap and small: no valid object of the
  // protocol has more than 10 members (a metrics response).
  std::array<std::string, 10> keys;
  size_t n = 0;
  for (; !in.Consume('}'); ++n) {
    if (n > 0 && !in.Consume(',')) {
      return ParseError("expected ',' or '}'", in.Rest());
    }
    if (n == keys.size()) return ParseError("too many members", in.Rest());
    std::string& key = keys[n];
    if (util::Status s = in.ParseString(&key); !s.ok()) return s;
    if (!in.Consume(':')) {
      return ParseError("expected ':' after key '" + key + "'", in.Rest());
    }
    if (std::find(keys.begin(), keys.begin() + n, key) != keys.begin() + n) {
      return util::Status::InvalidArgument("protocol: repeated key '" + key +
                                           "'");
    }
    if (util::Status s = member(key); !s.ok()) return s;
  }
  return util::Status::OK();
}

template <typename T>
util::Status ReadList(JsonReader& in, Shape shape, std::vector<T>* list);

/// JSON read. Keyed (records): Walk parses the one member named `key`
/// into its field and counts it, so Complete() can tell afterwards
/// whether every field of the table arrived. Positional (tuples, map
/// entries, scalars): each field parses the next value, `sep` between.
class JsonIn {
 public:
  JsonIn(JsonReader& in, Shape shape)
      : in_(in),
        keyed_(shape == Shape::kRecords),
        sep_(shape == Shape::kMap ? ':' : ',') {}

  void Str(std::string_view key, std::string& v) {
    if (Take(key)) Check(in_.ParseString(&v));
  }
  void I64(std::string_view key, int64_t& v, int64_t = 0) {
    if (Take(key)) Check(in_.ParseInt(&v));
  }
  void U32(std::string_view key, int& v) {
    int64_t wide = 0;
    if (Take(key) && Check(in_.ParseInt(&wide))) v = static_cast<int>(wide);
  }
  void U64(std::string_view key, uint64_t& v) {
    if (Take(key)) Check(in_.ParseInt(&v));
  }
  void F64(std::string_view key, double& v) {
    if (Take(key)) Check(in_.ParseDouble(&v));
  }
  void Oid(std::string_view key, model::ObjectId& v) {
    int64_t wide = 0;
    if (Take(key) && Check(in_.ParseInt(&wide))) ToObjectId(wide, &v, &status_);
  }
  template <typename T>
  void List(std::string_view key, std::vector<T>& list, Shape shape,
            int64_t = kNoLimit) {
    if (Take(key)) Check(ReadList(in_, shape, &list));
  }
  void Group(std::string_view, bool& present, const auto& fields) {
    in_group_ = true;
    fields();
    in_group_ = false;
    present = group_hits_ > 0;
  }
  void Trailer(std::string_view key, std::string& v) { Str(key, v); }

  /// Keyed: parses member `key` into the field of `msg` it names; false
  /// (nothing read) when `msg` has no such field.
  bool Walk(std::string_view key, auto& msg) {
    key_ = key;
    found_ = false;
    fields_ = group_fields_ = 0;
    Fields(*this, msg);
    return found_;
  }
  /// Keyed: Walk, with an unknown key as the error.
  util::Status Member(const std::string& key, auto& msg) {
    if (Walk(key, msg)) return status_;
    return util::Status::InvalidArgument("protocol: unknown key '" + key +
                                         "'");
  }
  /// Keyed: a whole JSON object whose members are fields of `msg`.
  util::Status Object(auto& msg) {
    return ReadObject(
        in_, [&](const std::string& key) { return Member(key, msg); });
  }
  /// Keyed: every field of the table walked last has arrived (a group's
  /// fields all or none). Needs each key read at most once.
  bool Complete() const {
    return hits_ == fields_ &&
           (group_hits_ == 0 || group_hits_ == group_fields_);
  }
  const util::Status& status() const { return status_; }

 private:
  // Whether this field is the one to read now.
  bool Take(std::string_view key) {
    if (!keyed_) {
      if (!status_.ok()) return false;
      if (!first_ && !in_.Consume(sep_)) {
        status_ = ParseError(std::string("expected '") + sep_ + "'",
                             in_.Rest());
        return false;
      }
      first_ = false;
      return true;
    }
    ++(in_group_ ? group_fields_ : fields_);
    if (found_ || key != key_) return false;
    found_ = true;
    ++(in_group_ ? group_hits_ : hits_);
    return true;
  }
  bool Check(util::Status status) {
    if (!status.ok()) status_ = std::move(status);
    return status_.ok();
  }

  JsonReader& in_;
  const bool keyed_;
  const char sep_;
  bool first_ = true;
  util::Status status_;
  std::string_view key_;
  bool found_ = false;
  bool in_group_ = false;
  int fields_ = 0, group_fields_ = 0;  // in the table walked last
  int hits_ = 0, group_hits_ = 0;      // members read so far
};

/// Binary write: every field little-endian, appended to one frame whose
/// u32 length prefix Framed() fills in.
class BinaryOut {
 public:
  BinaryOut() : out_(4, '\0') {}

  void Str(std::string_view, std::string_view v) {
    Fixed(static_cast<uint32_t>(v.size()));
    out_ += v;
  }
  void I64(std::string_view, int64_t v, int64_t = 0) { Fixed(v); }
  void U32(std::string_view, int v) { Fixed(v); }
  void U64(std::string_view, uint64_t v) { Fixed(v); }
  void F64(std::string_view, double v) { Fixed(std::bit_cast<uint64_t>(v)); }
  void Oid(std::string_view, model::ObjectId v) { Fixed(v); }
  template <typename T>
  void List(std::string_view, const std::vector<T>& list, Shape,
            int64_t = kNoLimit) {
    Fixed(static_cast<uint32_t>(list.size()));
    for (const T& element : list) Fields(*this, element);
  }
  void Group(std::string_view, bool present, const auto& fields) {
    Fixed(static_cast<uint8_t>(present));
    if (present) fields();
  }
  void Trailer(std::string_view key, std::string_view v) {
    if (v.empty()) return;
    Fixed(uint8_t{1});
    Str(key, v);
  }

  /// The low sizeof(U) bytes of `v`, two's complement for signed U.
  template <typename U>
  void Fixed(U v) {
    for (size_t i = 0; i < sizeof(U); ++i) {
      out_.push_back(
          static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) & 0xff));
    }
  }
  std::string Framed() && {
    const uint32_t length = static_cast<uint32_t>(out_.size() - 4);
    for (int i = 0; i < 4; ++i) {
      out_[i] = static_cast<char>((length >> (8 * i)) & 0xff);
    }
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// Binary read: the same fields back, bounds-checked. The first failure
/// sticks in status() and turns every later read into a no-op.
class BinaryIn {
 public:
  explicit BinaryIn(std::string_view bytes) : bytes_(bytes) {}

  void Str(std::string_view, std::string& v) {
    uint32_t length = 0;
    if (!Fixed(&length) || !Need(length)) return;
    v.assign(bytes_.substr(pos_, length));
    pos_ += length;
  }
  void I64(std::string_view, int64_t& v, int64_t = 0) { Fixed(&v); }
  void U32(std::string_view, int& v) { Fixed(&v); }
  void U64(std::string_view, uint64_t& v) { Fixed(&v); }
  void F64(std::string_view, double& v) {
    uint64_t bits = 0;
    if (Fixed(&bits)) v = std::bit_cast<double>(bits);
  }
  void Oid(std::string_view, model::ObjectId& v) {
    uint32_t wide = 0;
    if (Fixed(&wide)) ToObjectId(wide, &v, &status_);
  }
  template <typename T>
  void List(std::string_view key, std::vector<T>& list, Shape,
            int64_t max_entries = kNoLimit) {
    uint32_t n = 0;
    if (!Fixed(&n)) return;
    if (n > max_entries) {
      status_ = util::Status::InvalidArgument(
          "protocol: " + std::string(key) + " exceed " +
          std::to_string(max_entries) + " entries");
      return;
    }
    // Every element takes at least 4 bytes: the frame bounds the
    // allocation.
    if (!Need(size_t{n} * 4)) return;
    list.resize(n);
    for (T& element : list) {
      Fields(*this, element);
      if (!status_.ok()) return;
    }
  }
  void Group(std::string_view key, bool& present, const auto& fields) {
    uint8_t flag = 0;
    if (!Fixed(&flag)) return;
    if (flag > 1) {
      status_ = util::Status::InvalidArgument("protocol: invalid " +
                                              std::string(key) + " flag");
      return;
    }
    present = flag == 1;
    if (present) fields();
  }
  void Trailer(std::string_view key, std::string& v) {
    uint8_t flags = 0;
    if (AtEnd() || !Fixed(&flags)) return;
    if ((flags & ~uint8_t{1}) != 0) {
      status_ = util::Status::InvalidArgument(
          "protocol: unknown request flags " + std::to_string(flags));
      return;
    }
    // The encoder writes the trailer only when a flagged field is present,
    // so an all-zero flags byte is not a canonical frame — reject it
    // rather than tolerating trailing garbage.
    if (flags == 0) {
      status_ =
          util::Status::InvalidArgument("protocol: empty request trailer");
      return;
    }
    Str(key, v);
  }

  /// Reads sizeof(U) bytes into `*out` (left as it was on failure).
  template <typename U>
  bool Fixed(U* out) {
    if (!Need(sizeof(U))) return false;
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      v |= uint64_t{static_cast<uint8_t>(bytes_[pos_ + i])} << (8 * i);
    }
    pos_ += sizeof(U);
    *out = static_cast<U>(v);
    return true;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  const util::Status& status() const { return status_; }

 private:
  // Whether `n` more bytes are left to read; a truncation error if not.
  bool Need(size_t n) {
    if (status_.ok() && bytes_.size() - pos_ < n) {
      status_ = util::Status::InvalidArgument(
          "protocol: truncated binary frame");
    }
    return status_.ok();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  util::Status status_;
};

template <typename T>
util::Status ReadList(JsonReader& in, Shape shape, std::vector<T>* list) {
  const bool map = shape == Shape::kMap;
  if (!in.Consume(map ? '{' : '[')) {
    return ParseError(map ? "expected object" : "expected array", in.Rest());
  }
  while (!in.Consume(map ? '}' : ']')) {
    if (!list->empty() && !in.Consume(',')) {
      return ParseError("expected ',' between elements", in.Rest());
    }
    T& element = list->emplace_back();
    JsonIn fields(in, shape);
    if (shape == Shape::kRecords) {
      if (util::Status s = fields.Object(element); !s.ok()) return s;
      if (!fields.Complete()) {
        return util::Status::InvalidArgument(
            "protocol: list element is missing a field");
      }
      continue;
    }
    if (shape == Shape::kTuples && !in.Consume('[')) {
      return ParseError("expected '['", in.Rest());
    }
    Fields(fields, element);
    if (!fields.status().ok()) return fields.status();
    if (shape == Shape::kTuples && !in.Consume(']')) {
      return ParseError("expected ']'", in.Rest());
    }
  }
  return util::Status::OK();
}

/// Parses the payload member `key` into `*payload`. The first payload
/// member picks the alternative whose table has the key.
util::Status ReadPayloadMember(JsonIn& fields, const std::string& key,
                               Response::Payload* payload) {
  const auto walk = [&] {
    return std::visit([&](auto& alt) { return fields.Walk(key, alt); },
                      *payload);
  };
  if (walk()) return fields.status();
  if (payload->index() == 0) {
    for (size_t i = 1; i < std::variant_size_v<Response::Payload>; ++i) {
      EmplacePayload(payload, i);
      if (walk()) return fields.status();
    }
    *payload = Response::None{};
  }
  return util::Status::InvalidArgument("protocol: unexpected key '" + key +
                                       "'");
}

/// The JSON error object: code, message, and the optional extras.
util::Status ReadJsonError(JsonReader& in, Response* response) {
  std::string code_name;
  std::string message;
  util::Status s = ReadObject(in, [&](const std::string& key) {
    if (key == "code") return in.ParseString(&code_name);
    if (key == "message") return in.ParseString(&message);
    if (key == "retry_after_ms") {
      return in.ParseInt(&response->retry_after_ms);
    }
    if (key == "partial") {
      return JsonIn(in, Shape::kRecords).Object(response->partial.emplace());
    }
    return util::Status::InvalidArgument("protocol: unknown error key '" +
                                         key + "'");
  });
  if (!s.ok()) return s;
  for (size_t code = 1; code < std::size(kErrorStatus); ++code) {
    if (code_name ==
        util::StatusCodeName(static_cast<util::Status::Code>(code))) {
      response->status = kErrorStatus[code](std::move(message));
      return util::Status::OK();
    }
  }
  return util::Status::InvalidArgument("protocol: unknown error code '" +
                                       code_name + "'");
}

}  // namespace

std::optional<WireFormat> WireFormatFromName(std::string_view name) {
  if (name == "json") return WireFormat::kJsonLines;
  if (name == "binary") return WireFormat::kBinary;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// JsonCodec
//
// Request: {"op":"<name>", then the request fields}. Response: {["id":…,]
// "ok":true, then the payload fields} or {["id":…,]"ok":false,"error":
// {"code":…,"message":…[,"partial":{PostReport}][,"retry_after_ms":N]}}.
// Every object follows one rule: members in any order, each key at most
// once, unknown keys rejected.

util::StatusOr<FrameSplit> JsonCodec::SplitFrame(
    std::string_view buffer) const {
  const size_t newline = buffer.find('\n');
  if (newline == std::string_view::npos) {
    if (buffer.size() > kMaxFrameBytes) {
      return util::Status::InvalidArgument(
          "protocol: request line exceeds " +
          std::to_string(kMaxFrameBytes) + " bytes");
    }
    return FrameSplit{};
  }
  FrameSplit split;
  split.complete = true;
  split.consumed = newline + 1;
  split.frame = buffer.substr(0, newline);
  return split;
}

util::Status JsonCodec::DecodeRequest(std::string_view frame,
                                      Request* request) const {
  *request = Request{};
  JsonReader in(frame);
  JsonIn fields(in, Shape::kRecords);
  std::string op_name;
  util::Status s = ReadObject(in, [&](const std::string& key) {
    if (key == "op") return in.ParseString(&op_name);
    return fields.Member(key, *request);
  });
  if (!s.ok()) return s;
  if (!in.AtEnd()) {
    return ParseError("trailing characters after request object", in.Rest());
  }
  if (op_name.empty()) {
    return util::Status::InvalidArgument("protocol: missing \"op\"");
  }
  // The op is validated after the full object parse so request->id is
  // populated: the error response for an unknown op echoes the client's
  // correlation tag, exactly as the legacy string pipeline did.
  const std::optional<Op> op = OpFromName(op_name);
  if (!op.has_value()) {
    return util::Status::InvalidArgument("protocol: unknown op '" + op_name +
                                         "'");
  }
  request->op = *op;
  return ValidateRequest(*request);
}

std::string JsonCodec::EncodeRequest(const Request& request) const {
  std::string out = "{\"op\":\"";
  out += OpName(request.op);
  out += '"';
  JsonOut fields(out, Shape::kRecords);
  fields.first = false;
  fields.omit_defaults = true;
  Fields(fields, request);
  out += "}\n";
  return out;
}

std::string JsonCodec::EncodeResponse(const Response& response) const {
  std::string out = "{";
  if (!response.id.empty()) {
    out += "\"id\":\"" + obs::JsonEscape(response.id) + "\",";
  }
  if (response.status.ok()) {
    out += "\"ok\":true";
    JsonOut fields(out, Shape::kRecords);
    fields.first = false;
    std::visit([&](const auto& payload) { Fields(fields, payload); },
               response.payload);
    out += "}";
  } else {
    out += "\"ok\":false,\"error\":{";
    JsonOut error(out, Shape::kRecords);
    error.Str("code", util::StatusCodeName(response.status.code()));
    error.Str("message", response.status.message());
    if (response.partial.has_value()) {
      out += ",\"partial\":{";
      JsonOut fields(out, Shape::kRecords);
      Fields(fields, *response.partial);
      out += "}";
    }
    if (response.retry_after_ms >= 0) {
      error.I64("retry_after_ms", response.retry_after_ms);
    }
    out += "}}";
  }
  out += '\n';
  return out;
}

util::StatusOr<Response> JsonCodec::DecodeResponse(
    std::string_view frame) const {
  Response response;
  JsonReader in(frame);
  JsonIn payload(in, Shape::kRecords);
  std::optional<bool> ok;
  bool has_error = false;
  util::Status s = ReadObject(in, [&](const std::string& key) {
    if (key == "id") return in.ParseString(&response.id);
    if (key == "ok") return in.ParseBool(&ok.emplace());
    if (key == "error") {
      has_error = true;
      return ReadJsonError(in, &response);
    }
    return ReadPayloadMember(payload, key, &response.payload);
  });
  if (!s.ok()) return s;
  if (!in.AtEnd()) {
    return ParseError("trailing characters after response object",
                      in.Rest());
  }
  if (!ok.has_value()) {
    return util::Status::InvalidArgument("protocol: missing \"ok\"");
  }
  if (*ok == has_error) {
    return util::Status::InvalidArgument(
        "protocol: ok flag inconsistent with error object");
  }
  if (!*ok && response.payload.index() != 0) {
    return util::Status::InvalidArgument(
        "protocol: error response carries a payload");
  }
  if (!payload.Complete()) {
    return util::Status::InvalidArgument(
        "protocol: response payload is missing a field");
  }
  return response;
}

// ---------------------------------------------------------------------------
// BinaryCodec
//
// Frame: u32le body length, then the body, the fields encoded as in the
// table above. Request body: u8 op, then the request fields; the trailer
// (u8 flags, bit0 semantics, the rest zero; then the flagged strings) is
// written only when a flagged field is present, so pre-trailer frames
// (and their recorded bytes) decode unchanged.
// Response body:
//   u8 flags (bit0 ok, bit1 partial, bit2 retry; rest zero)
//   str id
//   [!ok]      u8 status code, str message
//   [partial]  the PostReport fields
//   [retry]    i64 retry_after_ms
//   u8 payload kind (the variant index: 0 none, 1 created, 2 pairs,
//      3 posted, 4 distribution, 5 quality, 6 metrics), then its fields.
// Trailing bytes after the decoded body are an error.

util::StatusOr<FrameSplit> BinaryCodec::SplitFrame(
    std::string_view buffer) const {
  if (buffer.size() < 4) return FrameSplit{};
  uint32_t length = 0;
  BinaryIn(buffer).Fixed(&length);
  if (length > kMaxFrameBytes) {
    return util::Status::InvalidArgument(
        "protocol: binary frame of " + std::to_string(length) +
        " bytes exceeds " + std::to_string(kMaxFrameBytes));
  }
  if (buffer.size() < 4 + static_cast<size_t>(length)) return FrameSplit{};
  FrameSplit split;
  split.complete = true;
  split.consumed = 4 + static_cast<size_t>(length);
  split.frame = buffer.substr(4, length);
  return split;
}

util::Status BinaryCodec::DecodeRequest(std::string_view frame,
                                        Request* request) const {
  *request = Request{};
  BinaryIn in(frame);
  uint8_t op = 0;
  in.Fixed(&op);
  Fields(in, *request);
  if (!in.status().ok()) return in.status();
  if (!in.AtEnd()) {
    return util::Status::InvalidArgument(
        "protocol: trailing bytes after binary request");
  }
  if (op > static_cast<uint8_t>(Op::kClose)) {
    return util::Status::InvalidArgument(
        "protocol: unknown op " + std::to_string(op));
  }
  request->op = static_cast<Op>(op);
  return ValidateRequest(*request);
}

std::string BinaryCodec::EncodeRequest(const Request& request) const {
  BinaryOut out;
  out.Fixed(static_cast<uint8_t>(request.op));
  Fields(out, request);
  return std::move(out).Framed();
}

std::string BinaryCodec::EncodeResponse(const Response& response) const {
  BinaryOut out;
  const bool ok = response.status.ok();
  uint8_t flags = ok ? 1 : 0;
  if (response.partial.has_value()) flags |= 2;
  if (response.retry_after_ms >= 0) flags |= 4;
  out.Fixed(flags);
  out.Str("id", response.id);
  if (!ok) {
    out.Fixed(static_cast<uint8_t>(response.status.code()));
    out.Str("message", response.status.message());
  }
  if (response.partial.has_value()) Fields(out, *response.partial);
  if (response.retry_after_ms >= 0) {
    out.I64("retry_after_ms", response.retry_after_ms);
  }
  out.Fixed(static_cast<uint8_t>(response.payload.index()));
  std::visit([&](const auto& payload) { Fields(out, payload); },
             response.payload);
  return std::move(out).Framed();
}

util::StatusOr<Response> BinaryCodec::DecodeResponse(
    std::string_view frame) const {
  Response response;
  BinaryIn in(frame);
  uint8_t flags = 0;
  if (!in.Fixed(&flags)) return in.status();
  if ((flags & ~uint8_t{7}) != 0) {
    return util::Status::InvalidArgument(
        "protocol: unknown response flags " + std::to_string(flags));
  }
  const bool ok = (flags & 1) != 0;
  in.Str("id", response.id);
  if (!ok) {
    uint8_t code = 0;
    std::string message;
    in.Fixed(&code);
    in.Str("message", message);
    if (!in.status().ok()) return in.status();
    if (code == 0 || code >= std::size(kErrorStatus)) {
      return util::Status::InvalidArgument(
          "protocol: unknown status code " + std::to_string(code));
    }
    response.status = kErrorStatus[code](std::move(message));
  } else if ((flags & 6) != 0) {
    return util::Status::InvalidArgument(
        "protocol: ok response carries error extras");
  }
  if ((flags & 2) != 0) Fields(in, response.partial.emplace());
  if ((flags & 4) != 0) {
    in.I64("retry_after_ms", response.retry_after_ms);
    if (in.status().ok() && response.retry_after_ms < 0) {
      return util::Status::InvalidArgument(
          "protocol: negative retry_after_ms");
    }
  }
  uint8_t kind = 0;
  if (!in.Fixed(&kind)) return in.status();
  if (!ok && kind != 0) {
    return util::Status::InvalidArgument(
        "protocol: error response carries a payload");
  }
  if (!EmplacePayload(&response.payload, kind)) {
    return util::Status::InvalidArgument(
        "protocol: unknown payload kind " + std::to_string(kind));
  }
  std::visit([&](auto& payload) { Fields(in, payload); }, response.payload);
  if (!in.status().ok()) return in.status();
  if (!in.AtEnd()) {
    return util::Status::InvalidArgument(
        "protocol: trailing bytes after binary response");
  }
  return response;
}

const Codec& CodecFor(WireFormat format) {
  static const JsonCodec json;
  static const BinaryCodec binary;
  return format == WireFormat::kBinary ? static_cast<const Codec&>(binary)
                                       : static_cast<const Codec&>(json);
}

}  // namespace ptk::serve
