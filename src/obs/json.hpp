// Deterministic JSON output: one byte layer and one structured writer.
//
// The exporters (run_report.json, chrome://tracing) need byte-stable
// output: two identical seeded runs must serialise to identical bytes so
// CI can diff reports across commits. Number formatting is therefore
// locale-free (integers through std::to_chars, integer-valued doubles as
// integers, everything else shortest-ish %.12g).
//
// JsonSink is the byte layer, the only one in src/obs: output goes into a
// 64 KiB chunk the sink owns and reaches the stream in one os.write per
// chunk, when the chunk fills, on flush() and on destruction. It escapes
// strings and formats numbers straight into the chunk, and knows nothing
// of JSON structure: what it is handed raw must already be valid JSON.
//
// JsonWriter is the structure layer on top of one sink: keys, values,
// nesting, commas and indentation, for documents whose shape is decided
// as they are written (the run report, the bench envelopes). It keeps no
// ambient state beyond the comma/nesting stack. Closing the outermost
// container hands the document to the stream, so a caller that writes
// to the stream itself (a trailing '\n', close()) does so after the
// outermost end_object()/end_array().
//
// A document whose records all have a fixed shape (the chrome trace)
// writes to a JsonSink directly instead, from constant fragments.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace canary::obs {

class JsonSink {
 public:
  explicit JsonSink(std::ostream& os);
  ~JsonSink() { flush(); }
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  /// Raw bytes, written as they are.
  void put(char c) {
    if (cur_ == end_) spill();
    *cur_++ = c;
  }
  void put(std::string_view s) {
    if (s.size() <= static_cast<std::size_t>(end_ - cur_)) {
      if (!s.empty()) std::memcpy(cur_, s.data(), s.size());
      cur_ += s.size();
    } else {
      put_long(s);
    }
  }

  /// `raw` escaped as the inside of a JSON string, without the quotes.
  void put_escaped(std::string_view raw);
  /// `raw` as a quoted, escaped JSON string.
  void put_quoted(std::string_view raw) {
    put('"');
    put_escaped(raw);
    put('"');
  }

  void put_int(std::int64_t v) {
    reserve(kMaxIntegerChars);
    cur_ = std::to_chars(cur_, end_, v).ptr;
  }
  void put_uint(std::uint64_t v) {
    reserve(kMaxIntegerChars);
    cur_ = std::to_chars(cur_, end_, v).ptr;
  }
  /// JsonWriter::format_double's text for `v`.
  void put_double(double v);

  /// Hands the buffered bytes to the stream and returns whether the
  /// stream is still good.
  bool flush();

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{64} * 1024;
  /// Longest decimal int64/uint64: "-9223372036854775808", UINT64_MAX.
  static constexpr std::size_t kMaxIntegerChars = 20;

  /// Room for `n` <= kChunkBytes contiguous bytes at cur_.
  void reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) spill();
  }
  void put_long(std::string_view s);
  void spill();

  std::ostream& os_;
  std::unique_ptr<char[]> chunk_;
  char* cur_;
  char* end_;
};

class JsonWriter {
 public:
  /// `indent` <= 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or a begin_*().
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// Hands the buffered bytes to the stream and returns whether the
  /// stream is still good. Only a document with no enclosing container
  /// (a bare scalar) needs it; closing the outermost container flushes.
  bool flush() { return sink_.flush(); }

  /// Locale-independent double formatting (NaN/Inf serialise as null,
  /// which JSON requires).
  static std::string format_double(double v);

 private:
  void before_value();
  void newline_indent();
  void close_container(char bracket);

  JsonSink sink_;
  int indent_;
  // One frame per open container: true once the first element is written.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace canary::obs
