#include "obs/perfetto.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/report.hpp"

namespace ttdc::obs {

namespace {

// Process ids partition the trace into Perfetto top-level groups.
constexpr int kSpanPid = 1;
constexpr int kPacketPid = 2;
constexpr int kNodePid = 3;

/// Formats a microsecond timestamp: integral when whole, else 3 decimals.
std::string fmt_us(double us) {
  const double rounded = std::round(us);
  char buf[32];
  if (std::abs(us - rounded) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "%.0f", rounded);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", us);
  }
  return buf;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) { out_ << "{\"traceEvents\":[\n"; }

  void emit(const std::string& event_json) {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << event_json;
  }

  void finish() { out_ << "\n],\"displayTimeUnit\":\"ms\"}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void emit_process_name(EventWriter& w, int pid, const std::string& name) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":" << json_string(name) << "}}";
  w.emit(os.str());
}

void emit_packet_tracks(EventWriter& w, const FlightLog& log, const PerfettoOptions& opt) {
  for (const PacketHistory& h : log.packets()) {
    const std::string track_name = "packet " + std::to_string(h.packet_id) +
                                   (h.truncated ? " (truncated)" : "");
    const auto common = [&](const char* ph, std::uint64_t slot) {
      std::ostringstream os;
      os << "{\"ph\":\"" << ph << "\",\"cat\":\"packet\",\"id\":" << h.packet_id
         << ",\"pid\":" << kPacketPid << ",\"tid\":0,\"ts\":"
         << fmt_us(static_cast<double>(slot) * opt.slot_us);
      return os;
    };
    {
      auto os = common("b", h.first_slot);
      os << ",\"name\":" << json_string(track_name) << "}";
      w.emit(os.str());
    }
    for (const FlightEvent& e : h.events) {
      auto os = common("n", e.slot);
      os << ",\"name\":\"" << flight_kind_name(e.kind) << "\",\"args\":{\"node\":" << e.node;
      if (e.peer != FlightEvent::kNoNode) os << ",\"peer\":" << e.peer;
      if (e.aux != 0) os << ",\"aux\":" << e.aux;
      if (e.kind == FlightEvent::Kind::kCollided) {
        os << ",\"interferer_count\":" << static_cast<unsigned>(e.interferer_count)
           << ",\"interferers\":[";
        for (std::size_t i = 0; i < e.stored_interferers(); ++i) {
          if (i != 0) os << ',';
          os << e.interferers[i];
        }
        os << ']';
      }
      os << "}}";
      w.emit(os.str());
    }
    {
      auto os = common("e", h.last_slot);
      os << ",\"name\":" << json_string(track_name) << "}";
      w.emit(os.str());
    }
  }
}

void emit_node_tracks(EventWriter& w, const FlightLog& log, const PerfettoOptions& opt) {
  for (const FlightEvent& e : log.events()) {
    if (e.node == FlightEvent::kNoNode) continue;
    std::ostringstream os;
    os << "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"node\",\"name\":\"" << flight_kind_name(e.kind)
       << "\",\"pid\":" << kNodePid << ",\"tid\":" << e.node
       << ",\"ts\":" << fmt_us(static_cast<double>(e.slot) * opt.slot_us)
       << ",\"args\":{\"packet\":" << e.packet_id;
    if (e.peer != FlightEvent::kNoNode) os << ",\"peer\":" << e.peer;
    if (e.aux != 0) os << ",\"aux\":" << e.aux;
    os << "}}";
    w.emit(os.str());
  }
}

// Spans are aggregates (calls/total/self), not timestamped intervals, so
// the track is a synthetic flame layout: DFS order packs each span at its
// parent's child-cursor with width = accumulated total time.
void emit_span_flame(EventWriter& w, const Profiler& profiler) {
  struct Frame {
    std::size_t depth;
    double child_cursor_us;
  };
  std::vector<Frame> stack;
  double root_cursor_us = 0.0;
  for (const Profiler::SpanSample& s : profiler.span_samples()) {
    while (!stack.empty() && stack.back().depth >= s.depth) stack.pop_back();
    const double ts = stack.empty() ? root_cursor_us : stack.back().child_cursor_us;
    const double dur = s.total_seconds * 1e6;
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"cat\":\"prof\",\"name\":" << json_string(s.name)
       << ",\"pid\":" << kSpanPid << ",\"tid\":0,\"ts\":" << fmt_us(ts)
       << ",\"dur\":" << fmt_us(dur) << ",\"args\":{\"calls\":" << s.calls
       << ",\"self_us\":" << fmt_us(s.self_seconds * 1e6) << ",\"path\":"
       << json_string(s.path) << "}}";
    w.emit(os.str());
    if (stack.empty()) {
      root_cursor_us += dur;
    } else {
      stack.back().child_cursor_us += dur;
    }
    stack.push_back({s.depth, ts});
  }
}

}  // namespace

void write_perfetto_trace(std::ostream& out, const FlightLog& log,
                          const Profiler* profiler, const PerfettoOptions& options) {
  EventWriter w(out);
  if (options.include_packets) emit_process_name(w, kPacketPid, "packets");
  if (options.include_node_tracks) emit_process_name(w, kNodePid, "nodes");
  if (options.include_spans && profiler != nullptr) {
    emit_process_name(w, kSpanPid, "profiler spans");
  }
  if (options.include_packets) emit_packet_tracks(w, log, options);
  if (options.include_node_tracks) emit_node_tracks(w, log, options);
  if (options.include_spans && profiler != nullptr) emit_span_flame(w, *profiler);
  w.finish();
}

bool write_perfetto_trace_file(const std::string& path, const FlightLog& log,
                               const Profiler* profiler, const PerfettoOptions& options) {
  std::ofstream out(path);
  if (!out) return false;
  write_perfetto_trace(out, log, profiler, options);
  out.flush();
  return static_cast<bool>(out);
}

namespace {

/// Recursive-descent JSON syntax checker. No value materialisation — just
/// structure, which is all the exporter tests need.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool run(std::string* error) {
    skip_ws();
    if (!value()) {
      if (error != nullptr) *error = error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing content at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool string() {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("dangling escape");
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    return true;
  }

  bool value() {
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_validate(const std::string& text, std::string* error) {
  return JsonChecker(text).run(error);
}

std::vector<std::string> validate_trace_events(const std::string& text) {
  std::vector<std::string> violations;
  std::string error;
  if (!json_validate(text, &error)) {
    violations.push_back("invalid JSON: " + error);
    return violations;
  }
  const auto key = text.find("\"traceEvents\"");
  if (key == std::string::npos) {
    violations.push_back("missing traceEvents key");
    return violations;
  }
  auto open = text.find('[', key);
  if (open == std::string::npos) {
    violations.push_back("traceEvents is not an array");
    return violations;
  }
  // Scan the array, slicing each top-level event object. The text is
  // already known-valid JSON, so brace counting (string-aware) is safe.
  std::size_t depth = 0;
  std::size_t event_start = 0;
  std::size_t event_index = 0;
  bool in_string = false;
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      if (depth == 0) event_start = i;
      ++depth;
    } else if (c == '}' || c == ']') {
      if (c == ']' && depth == 0) break;  // end of traceEvents array
      --depth;
      if (depth == 0) {
        const std::string event = text.substr(event_start, i - event_start + 1);
        if (event.find("\"ph\"") == std::string::npos) {
          violations.push_back("event " + std::to_string(event_index) + " missing \"ph\"");
        }
        if (event.find("\"name\"") == std::string::npos) {
          violations.push_back("event " + std::to_string(event_index) +
                               " missing \"name\"");
        }
        ++event_index;
      }
    }
  }
  if (event_index == 0) violations.push_back("traceEvents array is empty");
  return violations;
}

}  // namespace ttdc::obs
