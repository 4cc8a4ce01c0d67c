#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace canary::obs {

namespace {

/// Room for any format_double text plus snprintf's terminator.
constexpr std::size_t kDoubleBufChars = 40;

/// Writes format_double's text for `v` into `buf`; returns its length.
std::size_t format_double_to(double v, char (&buf)[kDoubleBufChars]) {
  if (!std::isfinite(v)) {
    std::memcpy(buf, "null", 4);
    return 4;
  }
  // Integer-valued doubles (counters, counts) print without a fraction so
  // reports read naturally and diff cleanly.
  const char* format =
      v == std::floor(v) && std::fabs(v) < 1e15 ? "%.0f" : "%.12g";
  return static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), format, v));
}

}  // namespace

JsonSink::JsonSink(std::ostream& os)
    : os_(os),
      chunk_(std::make_unique_for_overwrite<char[]>(kChunkBytes)),
      cur_(chunk_.get()),
      end_(chunk_.get() + kChunkBytes) {}

void JsonSink::put_double(double v) {
  char buf[kDoubleBufChars];
  put(std::string_view(buf, format_double_to(v, buf)));
}

void JsonSink::spill() {
  char* const begin = chunk_.get();
  if (cur_ != begin) os_.write(begin, cur_ - begin);
  cur_ = begin;
}

bool JsonSink::flush() {
  spill();
  return os_.good();
}

void JsonSink::put_long(std::string_view s) {
  while (s.size() > static_cast<std::size_t>(end_ - cur_)) {
    const std::size_t room = static_cast<std::size_t>(end_ - cur_);
    std::memcpy(cur_, s.data(), room);
    cur_ += room;
    s.remove_prefix(room);
    spill();
  }
  put(s);
}

void JsonSink::put_escaped(std::string_view raw) {
  // Copy each run of bytes that need no escape in one piece.
  const char* run = raw.data();
  const char* const last = raw.data() + raw.size();
  for (const char* p = run; p != last; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    put(std::string_view(run, static_cast<std::size_t>(p - run)));
    run = p + 1;
    switch (c) {
      case '"': put("\\\""); break;
      case '\\': put("\\\\"); break;
      case '\n': put("\\n"); break;
      case '\r': put("\\r"); break;
      case '\t': put("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        put(std::string_view(escaped, sizeof(escaped)));
      }
    }
  }
  put(std::string_view(run, static_cast<std::size_t>(last - run)));
}

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : sink_(os), indent_(indent) {}

std::string JsonWriter::format_double(double v) {
  char buf[kDoubleBufChars];
  return std::string(buf, format_double_to(v, buf));
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  sink_.put('\n');
  const std::size_t spaces =
      has_element_.size() * static_cast<std::size_t>(indent_);
  for (std::size_t i = 0; i < spaces; ++i) sink_.put(' ');
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already handled separator and indent
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) sink_.put(',');
    has_element_.back() = true;
    newline_indent();
  }
}

void JsonWriter::close_container(char bracket) {
  const bool had = !has_element_.empty() && has_element_.back();
  has_element_.pop_back();
  if (had) newline_indent();
  sink_.put(bracket);
  if (has_element_.empty()) sink_.flush();  // the document is complete
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  sink_.put('{');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close_container('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  sink_.put('[');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close_container(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!has_element_.empty()) {
    if (has_element_.back()) sink_.put(',');
    has_element_.back() = true;
    newline_indent();
  }
  sink_.put_quoted(name);
  sink_.put(indent_ > 0 ? std::string_view(": ") : std::string_view(":"));
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  sink_.put_quoted(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  sink_.put_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  sink_.put_int(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  sink_.put_uint(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  sink_.put(v ? std::string_view("true") : std::string_view("false"));
  return *this;
}

}  // namespace canary::obs
