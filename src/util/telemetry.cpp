#include "util/telemetry.hpp"

#include "util/json.hpp"
#include "util/trace.hpp"

namespace compact {

void telemetry_event::stamp() {
  timestamp_us = monotonic_now_us();
  thread_id = current_thread_slot();
}

double telemetry_event::metric_or(const std::string& name,
                                  double fallback) const {
  for (const auto& [key, value] : metrics)
    if (key == name) return value;
  return fallback;
}

std::string telemetry_event::attribute_or(const std::string& name,
                                          std::string fallback) const {
  for (const auto& [key, value] : attributes)
    if (key == name) return value;
  return fallback;
}

std::string json_escape(const std::string& text) {
  std::string out;
  json::append_escaped(out, text);
  return out;
}

std::string json_number(double value) {
  std::string out;
  json::append_number(out, value);
  return out;
}

std::string to_json_line(const telemetry_event& event) {
  std::string line = "{\"stage\":\"" + json_escape(event.stage) +
                     "\",\"seconds\":" + json_number(event.seconds);
  if (event.timestamp_us >= 0) {
    line += ",\"ts_us\":" + std::to_string(event.timestamp_us);
    line += ",\"tid\":" + std::to_string(event.thread_id);
  }
  for (const auto& [name, value] : event.metrics)
    line += ",\"" + json_escape(name) + "\":" + json_number(value);
  for (const auto& [name, value] : event.attributes)
    line += ",\"" + json_escape(name) + "\":\"" + json_escape(value) + "\"";
  line += "}";
  return line;
}

void json_lines_sink::emit(const telemetry_event& event) {
  std::string line;
  if (event.timestamp_us < 0) {
    telemetry_event stamped = event;
    stamped.stamp();
    line = to_json_line(stamped);
  } else {
    line = to_json_line(event);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  // Flush per line: a run cut short by std::exit or a crash in another
  // stage must still leave a valid JSON-lines file behind.
  os_ << line << '\n' << std::flush;
}

void memory_sink::emit(const telemetry_event& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::vector<telemetry_event> memory_sink::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t memory_sink::count(const std::string& stage) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const telemetry_event& e : events_)
    if (e.stage == stage) ++n;
  return n;
}

}  // namespace compact
