#include "obs/export.hpp"

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/event_log.hpp"

namespace awd::obs {

namespace {

/// Shortest round-trip decimal rendering of a double (JSON-safe).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Bound label for Prometheus le= / JSON keys ("5", "2.5", "+Inf").
std::string bound_label(double b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", b);
  return buf;
}

/// Find a counter by name; nullptr when absent.
const MetricsSnapshot::CounterSample* find_counter(const MetricsSnapshot& snap,
                                                  std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// Derived ratio metrics: iteration-count independent, so runs of any
/// length compare.
std::vector<std::pair<std::string, double>> derived_metrics(const MetricsSnapshot& snap) {
  std::vector<std::pair<std::string, double>> out;
  const auto* hits = find_counter(snap, "awd_deadline_cache_hits_total");
  const auto* misses = find_counter(snap, "awd_deadline_cache_misses_total");
  if (hits != nullptr && misses != nullptr && hits->value + misses->value > 0) {
    out.emplace_back("deadline_cache_hit_rate",
                     static_cast<double>(hits->value) /
                         static_cast<double>(hits->value + misses->value));
  }
  const auto* shrink = find_counter(snap, "awd_adaptive_window_shrink_total");
  const auto* grow = find_counter(snap, "awd_adaptive_window_grow_total");
  const auto* steps = find_counter(snap, "awd_adaptive_steps_total");
  if (shrink != nullptr && grow != nullptr && steps != nullptr && steps->value > 0) {
    out.emplace_back("adaptive_window_change_rate",
                     static_cast<double>(shrink->value + grow->value) /
                         static_cast<double>(steps->value));
  }
  return out;
}

}  // namespace

double histogram_quantile(const MetricsSnapshot::HistogramSample& h, double q) noexcept {
  if (h.count == 0 || h.bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t below = cumulative;
    cumulative += h.counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // Prometheus semantics: the +Inf bucket has no upper edge to
    // interpolate toward, so the quantile clamps to the last finite bound.
    if (i >= h.bounds.size()) return h.bounds.back();
    const double hi = h.bounds[i];
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    if (h.counts[i] == 0) return hi;  // unreachable with cumulative >= rank
    const double frac = (rank - static_cast<double>(below)) /
                        static_cast<double>(h.counts[i]);
    return lo + (hi - lo) * frac;
  }
  return h.bounds.back();
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& c : snap.counters) {
    if (!c.help.empty()) out << "# HELP " << c.name << " " << c.help << "\n";
    out << "# TYPE " << c.name << " counter\n";
    out << c.name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    if (!g.help.empty()) out << "# HELP " << g.name << " " << g.help << "\n";
    out << "# TYPE " << g.name << " gauge\n";
    out << g.name << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    if (!h.help.empty()) out << "# HELP " << h.name << " " << h.help << "\n";
    out << "# TYPE " << h.name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out << h.name << "_bucket{le=\"" << bound_label(h.bounds[i]) << "\"} " << cumulative
          << "\n";
    }
    cumulative += h.counts.back();
    out << h.name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << h.name << "_sum " << fmt_double(h.sum) << "\n";
    out << h.name << "_count " << h.count << "\n";
    // Interpolated quantiles as companion gauges, so dashboards get p50/p99
    // without PromQL histogram_quantile over the bucket series.
    if (h.count > 0) {
      out << "# TYPE " << h.name << "_p50 gauge\n";
      out << h.name << "_p50 " << fmt_double(histogram_quantile(h, 0.50)) << "\n";
      out << "# TYPE " << h.name << "_p99 gauge\n";
      out << h.name << "_p99 " << fmt_double(histogram_quantile(h, 0.99)) << "\n";
    }
  }
  for (const auto& t : snap.timers) {
    if (!t.help.empty()) out << "# HELP " << t.name << "_seconds_total " << t.help << "\n";
    out << "# TYPE " << t.name << "_seconds_total counter\n";
    out << t.name << "_seconds_total " << fmt_double(static_cast<double>(t.total_ns) * 1e-9)
        << "\n";
    out << "# TYPE " << t.name << "_calls_total counter\n";
    out << t.name << "_calls_total " << t.count << "\n";
  }
  return out.str();
}

std::string metrics_json(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << snap.counters[i].name
        << "\": " << snap.counters[i].value;
  }
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << snap.gauges[i].name
        << "\": " << snap.gauges[i].value;
  }
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << h.name << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      out << (b == 0 ? "" : ", ") << fmt_double(h.bounds[b]);
    }
    out << "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << h.counts[b];
    }
    out << "], \"sum\": " << fmt_double(h.sum) << ", \"count\": " << h.count << "}";
  }
  out << "\n  },\n  \"profile\": {";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    const auto& t = snap.timers[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << t.name << "\": {\"count\": " << t.count
        << ", \"total_ns\": " << t.total_ns << ", \"min_ns\": " << t.min_ns
        << ", \"max_ns\": " << t.max_ns << "}";
  }
  out << "\n  },\n  \"derived\": {";
  const auto derived = derived_metrics(snap);
  for (std::size_t i = 0; i < derived.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << derived[i].first
        << "\": " << fmt_double(derived[i].second);
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << e.name << "\", \"cat\": \""
        << e.cat << "\", \"ph\": \"" << e.ph << "\", \"pid\": 1, \"tid\": " << e.tid
        << ", \"ts\": " << fmt_double(static_cast<double>(e.ts_ns) * 1e-3);
    if (e.ph == 'X') {
      out << ", \"dur\": " << fmt_double(static_cast<double>(e.dur_ns) * 1e-3);
    } else {
      out << ", \"s\": \"t\"";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string trace_jsonl(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  for (const TraceEvent& e : events) {
    out << "{\"name\": \"" << e.name << "\", \"cat\": \"" << e.cat << "\", \"ph\": \""
        << e.ph << "\", \"tid\": " << e.tid << ", \"ts_ns\": " << e.ts_ns
        << ", \"dur_ns\": " << e.dur_ns << "}\n";
  }
  return out.str();
}

core::Status write_obs_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return core::Status{core::StatusCode::kUnavailable,
                        "write_obs_dir: cannot create output directory"};
  }
  const MetricsSnapshot snap = Registry::global().snapshot();
  const std::vector<TraceEvent> events = Tracer::global().collect();
  const std::pair<const char*, std::string> files[] = {
      {"metrics.prom", prometheus_text(snap)},
      {"metrics.json", metrics_json(snap)},
      {"trace.json", chrome_trace_json(events)},
      {"trace.jsonl", trace_jsonl(events)},
      {"events.jsonl", events_jsonl(EventLog::global().collect())},
  };
  for (const auto& [name, content] : files) {
    std::ofstream out(std::filesystem::path(dir) / name);
    if (!out) {
      return core::Status{core::StatusCode::kUnavailable,
                          "write_obs_dir: cannot open output file"};
    }
    out << content;
  }
  return core::Status::ok();
}

// --- failure-path flush ----------------------------------------------------

namespace {

/// Armed flush state.  The mutex orders install/add/remove against a flush
/// from another thread; the flush itself copies what it needs and runs the
/// hooks outside the lock (a hook may log events or call back into obs).
struct FailureFlushState {
  std::mutex mu;
  std::string dir;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks;
  std::uint64_t next_token = 1;
  bool installed = false;
  std::terminate_handler previous = nullptr;
};

FailureFlushState& failure_state() {
  static FailureFlushState* state = new FailureFlushState();  // outlives atexit
  return *state;
}

[[noreturn]] void terminate_with_flush() {
  flush_failure_artifacts();
  const std::terminate_handler previous = failure_state().previous;
  if (previous != nullptr) previous();
  std::abort();
}

}  // namespace

void install_failure_flush(const std::string& dir) {
  FailureFlushState& state = failure_state();
  bool install_hooks = false;
  {
    const std::lock_guard<std::mutex> lock(state.mu);
    state.dir = dir;
    install_hooks = !state.installed;
    state.installed = true;
  }
  if (install_hooks) {
    state.previous = std::set_terminate(&terminate_with_flush);
    std::atexit([] { flush_failure_artifacts(); });
  }
}

void flush_failure_artifacts() noexcept {
  FailureFlushState& state = failure_state();
  std::string dir;
  std::vector<std::function<void()>> hooks;
  {
    const std::lock_guard<std::mutex> lock(state.mu);
    dir = state.dir;
    hooks.reserve(state.hooks.size());
    for (const auto& [token, hook] : state.hooks) {
      (void)token;
      hooks.push_back(hook);
    }
  }
  try {
    // Hooks first: a crash dump's events must land in the flushed log.
    for (const auto& hook : hooks) hook();
    if (dir.empty()) return;
    EventLog::global().log(EventKind::kCrashFlush, 0, 0, 0,
                           static_cast<std::int64_t>(hooks.size()), 0,
                           "failure-path flush");
    const core::Status st = write_obs_dir(dir);
    if (!st.is_ok()) {
      std::fprintf(stderr, "obs: failure flush to %s failed: %s\n", dir.c_str(),
                   std::string(st.message()).c_str());
    }
  } catch (...) {
    // The flush runs on the way down; it must never turn one failure into
    // another (terminate inside terminate aborts without artifacts).
  }
}

std::uint64_t add_failure_hook(std::function<void()> hook) {
  FailureFlushState& state = failure_state();
  const std::lock_guard<std::mutex> lock(state.mu);
  const std::uint64_t token = state.next_token++;
  state.hooks.emplace_back(token, std::move(hook));
  return token;
}

void remove_failure_hook(std::uint64_t token) noexcept {
  FailureFlushState& state = failure_state();
  const std::lock_guard<std::mutex> lock(state.mu);
  for (std::size_t i = 0; i < state.hooks.size(); ++i) {
    if (state.hooks[i].first == token) {
      state.hooks.erase(state.hooks.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

ObsSession::ObsSession(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--obs-out=", 10) == 0) {
      dir_ = arg + 10;
      continue;  // strip
    }
    if (std::strcmp(arg, "--obs-out") == 0 && i + 1 < argc) {
      dir_ = argv[++i];
      continue;  // strip flag and value
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (!dir_.empty()) {
    set_enabled(true);  // --obs-out is an explicit request; it wins over AWD_OBS=off
    Tracer::global().start();
  }
}

ObsSession::~ObsSession() {
  if (dir_.empty()) return;
  Tracer::global().stop();
  const core::Status st = write_obs_dir(dir_);
  if (!st.is_ok()) {
    std::fprintf(stderr, "obs: failed to write %s: %s\n", dir_.c_str(),
                 std::string(st.message()).c_str());
    return;
  }
  const std::uint64_t dropped = Tracer::global().dropped();
  std::printf("\n[obs] wrote metrics + trace to %s (%zu events%s)\n", dir_.c_str(),
              Tracer::global().collect().size(),
              dropped > 0 ? ", some DROPPED — raise capacity" : "");
}

}  // namespace awd::obs
