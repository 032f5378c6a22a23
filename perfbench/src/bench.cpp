#include "bench.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/noise.hpp"

namespace perfbench {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + json_number(values[i]);
  return out + "]";
}

void Json::key_(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key);
  body_ += ": ";
}

Json& Json::num(std::string_view key, double value) {
  key_(key);
  body_ += json_number(value);
  return *this;
}

Json& Json::count(std::string_view key, std::uint64_t value) {
  key_(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::str(std::string_view key, std::string_view value) {
  key_(key);
  body_ += json_string(value);
  return *this;
}

Json& Json::flag(std::string_view key, bool value) {
  key_(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::raw(std::string_view key, const std::string& json) {
  key_(key);
  body_ += json;
  return *this;
}

void SpanLog::merge(const SpanLog& other, std::int64_t parent) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + offset;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanLog::Stat> SpanLog::by_name() const {
  const std::vector<std::uint64_t> self = self_times(spans_);
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Stat& st = out[s.name];
    ++st.count;
    if (s.end_ns > s.start_ns) st.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    st.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"i\": " << i << ", \"name\": " << json_string(s.name)
      << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"stream\": " << s.stream
      << ", \"step\": " << s.step << "}\n";
  }
  return static_cast<bool>(f);
}

std::size_t bench_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t stream) {
  return awd::sim::splitmix64(awd::sim::splitmix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL)) +
                              index);
}

std::vector<double> pinned_round(double seconds_per_cpu, const std::function<double()>& rep) {
  cpu_set_t original;
  CPU_ZERO(&original);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof original, &original) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // mask unreadable: run unpinned
  std::vector<double> samples;
  for (const int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);  // best effort
    }
    const std::uint64_t start = now_ns();
    do {
      samples.push_back(rep());
    } while (seconds_between(start, now_ns()) < seconds_per_cpu);
  }
  if (cpus.front() >= 0) pthread_setaffinity_np(pthread_self(), sizeof original, &original);
  return samples;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  if (!f) return 0.0;
  std::stringstream text;
  text << f.rdbuf();
  const std::optional<std::uint64_t> kb = parse_vmhwm_kb(text.str());
  return kb ? static_cast<double>(*kb) / 1024.0 : 0.0;
}

}  // namespace perfbench
