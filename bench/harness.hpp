// Shared scaffolding of the paper benches: argument parsing, the
// --json-out document ci/check_bench.py reads, the traced re-runs behind
// --trace-out, and the echo service the receive-memory sweeps drive.
#pragma once

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/engine.hpp"
#include "sim/scheduler.hpp"
#include "trace/chrome_export.hpp"
#include "trace/critical_path.hpp"

namespace rpcoib::bench {

// ---- Arguments ----------------------------------------------------------

/// The options a bench may take; each bench passes the set it reads.
enum Flag : unsigned {
  kJsonOut = 1u << 0,    // --json-out=FILE
  kReportOut = 1u << 1,  // --report-out=FILE
  kTraceOut = 1u << 2,   // --trace-out=FILE
};

struct Args {
  int scale = 0;  // 0 when absent
  std::string json_out, report_out, trace_out;  // "" when absent
};

/// Parses argv against the options in `takes`; a bench with a `max_scale`
/// also takes one SCALE divisor from 1 to `max_scale`. An unknown option,
/// one this bench does not take, a stray argument or a scale out of range
/// prints a one-line usage to stderr and exits 2 before the bench runs
/// anything.
inline Args parse_args(int argc, char** argv, unsigned takes, int max_scale = 0) {
  struct Option {
    Flag flag;
    std::string_view prefix;
    std::string Args::*path;
  };
  static const Option kOptions[] = {{kJsonOut, "--json-out=", &Args::json_out},
                                    {kReportOut, "--report-out=", &Args::report_out},
                                    {kTraceOut, "--trace-out=", &Args::trace_out}};
  const auto fail = [&](const std::string& why) {
    const std::string_view path = argc > 0 ? argv[0] : "bench";
    const std::string_view name = path.substr(path.rfind('/') + 1);
    std::cerr << name << ": " << why << "; usage: " << name;
    if (max_scale > 0) std::cerr << " [SCALE 1-" << max_scale << "]";
    for (const Option& o : kOptions) {
      if ((takes & o.flag) != 0) std::cerr << " [" << o.prefix << "FILE]";
    }
    std::cerr << "\n";
    std::exit(2);
  };

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) {
      const Option* hit = nullptr;
      for (const Option& o : kOptions) {
        if ((takes & o.flag) != 0 && arg.starts_with(o.prefix)) hit = &o;
      }
      if (hit == nullptr) fail("unknown option " + std::string(arg));
      args.*(hit->path) = arg.substr(hit->prefix.size());
      continue;
    }
    if (max_scale == 0 || args.scale != 0) fail("unexpected argument " + std::string(arg));
    const char* end = arg.data() + arg.size();
    const auto [ptr, ec] = std::from_chars(arg.data(), end, args.scale);
    if (ec != std::errc() || ptr != end || args.scale < 1 || args.scale > max_scale) {
      fail("scale must be an integer from 1 to " + std::to_string(max_scale) + ", not '" +
           std::string(arg) + "'");
    }
  }
  return args;
}

// ---- Output -------------------------------------------------------------

/// Writes `text` to `path` and prints "wrote PATH"; an empty path writes
/// nothing. Returns false, after printing why, if the file cannot be
/// opened: the bench then exits 1.
inline bool write_out(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) {
    std::cerr << "error: could not write " << path << "\n";
    return false;
  }
  f << text;
  std::cout << "wrote " << path << "\n";
  return true;
}

/// One "key": value member of a JSON object. Strings are bench labels and
/// are quoted as they are; numbers print in the stream's default format.
struct Field {
  Field(const char* k, const char* v) : key(k), value('"' + std::string(v) + '"') {}
  Field(const char* k, bool v) : key(k), value(v ? "true" : "false") {}
  template <typename T>
    requires std::is_arithmetic_v<T>
  Field(const char* k, T v) : key(k) {
    std::ostringstream os;
    os << v;
    value = os.str();
  }
  std::string key, value;
};
using Object = std::vector<Field>;

/// A bench's --json-out document, one line per top-level member and per
/// array element:
///   {"bench": NAME, <scalars>, "rows": [...], <further arrays>}
class Json {
 public:
  explicit Json(const char* bench) : scalars_{{"bench", bench}}, arrays_{{"rows", {}}} {}

  void scalar(Field f) { scalars_.push_back(std::move(f)); }

  /// Appends `row` to `array`; arrays print in order of first use.
  void row(Object row, std::string_view array = "rows") {
    auto it = arrays_.begin();
    while (it != arrays_.end() && it->first != array) ++it;
    if (it == arrays_.end()) it = arrays_.insert(it, {std::string(array), {}});
    it->second.push_back(std::move(row));
  }

  std::string str() const {
    std::string s = "{";
    const char* sep = "\n  ";
    for (const Field& f : scalars_) {
      s += sep + member(f);
      sep = ",\n  ";
    }
    for (const auto& [name, rows] : arrays_) {
      s += sep + ('"' + name + "\": [\n");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        s += "    {";
        for (std::size_t j = 0; j < rows[i].size(); ++j) {
          s += (j > 0 ? ", " : "") + member(rows[i][j]);
        }
        s += i + 1 < rows.size() ? "},\n" : "}\n";
      }
      s += "  ]";
    }
    return s + "\n}\n";
  }

 private:
  static std::string member(const Field& f) { return '"' + f.key + "\": " + f.value; }

  Object scalars_;
  std::vector<std::pair<std::string, std::vector<Object>>> arrays_;
};

// ---- Traced runs --------------------------------------------------------

/// "sort.json" + "ipoib" -> "sort.ipoib.json" (tag before the extension).
inline std::string path_with_tag(const std::string& path, const std::string& tag) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/// Re-runs `run` with tracing on, once over IPoIB and once over RPCoIB.
/// Each run is exported as chrome://tracing JSON to `path` tagged with the
/// transport, followed by the critical path of its longest root span
/// (`root` names what that span is). Runs are separated by a blank line.
/// These are separate runs: a traced call carries its trace context on
/// the wire, so the untraced results stay untouched.
inline void traced_runs(const std::string& path, const char* root,
                        const std::function<void(oib::RpcMode, trace::TraceCollector&)>& run) {
  const std::pair<oib::RpcMode, const char*> transports[] = {
      {oib::RpcMode::kSocketIPoIB, "ipoib"}, {oib::RpcMode::kRpcoIB, "rpcoib"}};
  for (const auto& [mode, tag] : transports) {
    if (mode != transports[0].first) std::cout << "\n";
    trace::TraceCollector col;
    col.set_enabled(true);
    run(mode, col);
    const std::string out = path_with_tag(path, tag);
    if (trace::write_chrome_trace_file(out, col)) {
      std::cout << "wrote " << out << " (" << col.spans().size() << " spans)\n";
    } else {
      std::cerr << "error: could not write trace file " << out << "\n";
    }
    std::cout << "critical path, " << tag << " (longest " << root << "):\n";
    trace::print_critical_path(std::cout, col);
  }
}

// ---- Echo service -------------------------------------------------------

/// Registers `key` on `server` as an echo of its BytesWritable argument.
inline void register_echo(rpc::RpcServer& server, const rpc::MethodKey& key) {
  server.dispatcher().register_method<rpc::BytesWritable>(
      key.protocol, key.method, [](rpc::BytesWritable& payload) { return std::move(payload); });
}

/// One client of a receive-memory sweep: after `start`, one uncounted
/// warmup call, then `calls` timed 64 B echo calls of `key` at `addr`,
/// each adding its latency to `total_us` and one to `done`.
///
/// Staggering the starts across clients keeps the in-flight call count
/// (buffers held from ring pop to handler dispatch) roughly constant
/// across the sweep, so the server's ring-bytes peak isolates posted
/// receive memory rather than burst depth. The warmup absorbs connection
/// and pool bootstrap, so the mean reflects steady state.
inline sim::Task echo_client(sim::Scheduler& s, rpc::RpcClient& client, net::Address addr,
                             rpc::MethodKey key, sim::Dur start, int calls, double& total_us,
                             int& done) {
  co_await sim::delay(s, start);
  rpc::BytesWritable req(net::Bytes(64, net::Byte{0x5a}));
  {
    rpc::BytesWritable resp;
    co_await client.call(addr, key, req, &resp);
  }
  for (int i = 0; i < calls; ++i) {
    rpc::BytesWritable resp;
    const sim::Time t0 = s.now();
    co_await client.call(addr, key, req, &resp);
    total_us += sim::to_us(s.now() - t0);
    ++done;
  }
}

}  // namespace rpcoib::bench
