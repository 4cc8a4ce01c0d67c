// Minimal deterministic JSON writer.
//
// The exporters (run_report.json, chrome://tracing) need byte-stable
// output: two identical seeded runs must serialise to identical bytes so
// CI can diff reports across commits. This writer therefore controls
// number formatting itself (locale-free, integer-valued doubles print as
// integers, everything else shortest-ish %.12g) and keeps no ambient
// state beyond the comma/nesting stack and its output chunk.
//
// Output goes into a 64 KiB chunk the writer owns and reaches the stream
// in one os.write per chunk: when the chunk fills, when the outermost
// container closes, and on destruction. A caller that writes to the
// stream itself (a trailing '\n', close()) does so after the outermost
// end_object()/end_array(), when the stream already holds the document.
// Keys and strings are escaped straight into the chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace canary::obs {

class JsonWriter {
 public:
  /// `indent` <= 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2);
  ~JsonWriter() { flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

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
  bool flush();

  /// Locale-independent double formatting (NaN/Inf serialise as null,
  /// which JSON requires).
  static std::string format_double(double v);

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{64} * 1024;

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
  /// Room for `n` <= kChunkBytes contiguous bytes at cur_.
  void reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) spill();
  }
  void put_long(std::string_view s);
  void put_quoted(std::string_view raw);
  void spill();
  void before_value();
  void newline_indent();
  void close_container(char bracket);

  std::ostream& os_;
  int indent_;
  std::unique_ptr<char[]> chunk_;
  char* cur_;
  char* end_;
  // One frame per open container: true once the first element is written.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace canary::obs
