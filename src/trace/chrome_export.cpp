#include "trace/chrome_export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace rpcoib::trace {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Virtual ns -> microseconds with fixed 3-decimal formatting (exact for
/// ns-granular times; deterministic across runs and platforms).
void write_us(std::ostream& os, sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(t / 1000),
                static_cast<unsigned long long>(t % 1000));
  os << buf;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kInternal: return "internal";
    case Kind::kClient: return "client";
    case Kind::kServer: return "server";
  }
  return "?";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceCollector& collector) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [id, name] : collector.host_names()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\":\"M\",\"pid\":" << id << ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    write_escaped(os, name);
    os << "\"}}";
  }
  for (const Span& s : collector.spans()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    write_escaped(os, s.name);
    os << "\",\"cat\":\"";
    write_escaped(os, category_name(s.category));
    os << "\",\"ph\":\"X\",\"ts\":";
    write_us(os, s.start);
    os << ",\"dur\":";
    write_us(os, s.duration());
    os << ",\"pid\":" << s.host << ",\"tid\":" << s.trace_id;
    os << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent_id
       << ",\"kind\":\"" << kind_name(s.kind) << "\"";
    for (const auto& [k, v] : s.attrs) {
      os << ",\"";
      write_escaped(os, k);
      os << "\":\"";
      write_escaped(os, v);
      os << "\"";
    }
    if (s.open) os << ",\"unclosed\":true";
    os << "}}";
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const TraceCollector& collector) {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f, collector);
  return f.good();
}

}  // namespace rpcoib::trace
