#include "ledger.hpp"

#include <atomic>
#include <fstream>
#include <sstream>

#include "obs/flight_query.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"

namespace ttdc::e2e {

namespace {

// Perfetto process id of the harness-span track; obs/perfetto.cpp uses 1-3.
constexpr int kHarnessPid = 4;

int this_thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

int& current_span() {
  thread_local int current = -1;
  return current;
}

std::string fmt_us(std::int64_t ns) {
  std::ostringstream os;
  os << ns / 1000 << '.' << (ns % 1000) / 100 << (ns % 100) / 10 << ns % 10;
  return os.str();
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::open(const std::string& name, int parent) {
  Record r;
  r.name = name;
  r.parent = parent;
  r.thread = this_thread_number();
  r.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
  return static_cast<int>(records_.size()) - 1;
}

void SpanLog::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanLog::Record> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Span::Span(SpanLog* log, const char* name) : Span(log, name, current_span()) {}

Span::Span(SpanLog* log, const char* name, int parent) : log_(log) {
  if (log_ == nullptr) return;
  prof_.emplace(obs::Profiler::instance().site(name));
  saved_current_ = current_span();
  id_ = log_->open(name, parent);
  current_span() = id_;
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->close(id_);
  current_span() = saved_current_;
  prof_.reset();
}

ProfTable profiler_snapshot() {
  ProfTable table;
  for (const obs::Profiler::Sample& s : obs::Profiler::instance().samples()) {
    table[s.name] = ProfEntry{s.calls, s.total_seconds, s.self_seconds};
  }
  return table;
}

ProfTable profiler_delta(const ProfTable& after, const ProfTable& before) {
  ProfTable delta;
  for (const auto& [name, a] : after) {
    ProfEntry d = a;
    if (const auto it = before.find(name); it != before.end()) {
      d.calls -= it->second.calls;
      d.total_s -= it->second.total_s;
      d.self_s -= it->second.self_s;
    }
    delta[name] = d;
  }
  return delta;
}

std::vector<std::string> write_trace(const std::string& path, const SpanLog& log) {
  obs::PerfettoOptions options;
  options.include_packets = false;
  options.include_node_tracks = false;
  std::ostringstream exported;
  obs::write_perfetto_trace(exported, obs::FlightLog({}), &obs::Profiler::instance(), options);
  std::string text = exported.str();

  // Splice the harness's own spans into the exporter's traceEvents array,
  // just before its closing bracket.
  const std::size_t close = text.rfind("\n]");
  if (close == std::string::npos) return {"exporter output has no traceEvents array"};
  const std::size_t last = text.find_last_not_of(" \n", close);
  std::ostringstream spans;
  spans << (last != std::string::npos && text[last] == '[' ? "" : ",\n")
        << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kHarnessPid
        << ",\"tid\":0,\"args\":{\"name\":\"e2e harness spans\"}}";
  const std::vector<SpanLog::Record> records = log.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanLog::Record& r = records[i];
    const std::int64_t end = r.end_ns < 0 ? r.start_ns : r.end_ns;
    spans << ",\n{\"ph\":\"X\",\"cat\":\"harness\",\"name\":" << obs::json_string(r.name)
          << ",\"pid\":" << kHarnessPid << ",\"tid\":" << r.thread
          << ",\"ts\":" << fmt_us(r.start_ns) << ",\"dur\":" << fmt_us(end - r.start_ns)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  text.insert(close, spans.str());

  {
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out) return {"cannot write " + path};
  }
  std::ifstream in(path);
  std::ostringstream reread;
  reread << in.rdbuf();
  return obs::validate_trace_events(reread.str());
}

}  // namespace ttdc::e2e
