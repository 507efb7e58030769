// Trace Event Format (chrome://tracing / Perfetto) exporter.
//
// Emits complete ("ph":"X") events, one per span, with pid = simulated
// host and tid = trace id, so a cluster run renders as one lane per host
// with each request/job tree nesting by time. Output is deterministic:
// spans are written in creation order with fixed-precision timestamps, so
// the same seed produces a byte-identical file.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace rpcoib::trace {

void write_chrome_trace(std::ostream& os, const TraceCollector& collector);

/// Writes to `path`; returns false (and prints nothing) on I/O failure.
bool write_chrome_trace_file(const std::string& path, const TraceCollector& collector);

}  // namespace rpcoib::trace
