#include "harness.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/export.h"
#include "sim/parse_uint.h"

namespace flowvalve::bench {

namespace {

/// `s` as a --jobs count (sim::parse_uint) that fits an unsigned. Exits 2
/// otherwise.
unsigned parse_jobs(const char* program, const char* s) {
  const auto v = sim::parse_uint(s, std::numeric_limits<unsigned>::max());
  if (!v) {
    std::cerr << program << ": --jobs wants an unsigned integer no larger than "
              << std::numeric_limits<unsigned>::max() << ", got '" << s
              << "'\n";
    std::exit(2);
  }
  return static_cast<unsigned>(*v);
}

}  // namespace

Args parse_args(int argc, char** argv, const char* program,
                const char* artifact, unsigned flags) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--out") == 0 && has_value) {
      a.out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      a.quick = true;
    } else if ((flags & kCheck) && std::strcmp(argv[i], "--check") == 0 &&
               has_value) {
      a.check = argv[++i];
    } else if ((flags & kJobs) && std::strcmp(argv[i], "--jobs") == 0 &&
               has_value) {
      a.jobs = parse_jobs(program, argv[++i]);
    } else {
      std::cerr << "usage: " << program << " [--out PATH] [--quick]"
                << ((flags & kCheck) ? " [--check BASELINE.json]" : "")
                << ((flags & kJobs) ? " [--jobs N]" : "") << "\n";
      std::exit(2);
    }
  }
  if (a.out.empty() && a.check.empty()) a.out = artifact;
  return a;
}

std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps()
    << "gbit\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

Interleaved interleave(const std::function<double()>& num,
                       const std::function<double()>& den) {
  num();  // warm-up pair, discarded
  den();
  Interleaved r;
  std::vector<double> ratios;
  for (unsigned i = 0; i < kPairs; ++i) {
    double n = 0.0, d = 0.0;
    if (i % 2 == 0) {
      n = num();
      d = den();
    } else {
      d = den();
      n = num();
    }
    r.num.push_back(n);
    r.den.push_back(d);
    ratios.push_back(d > 0.0 ? n / d : 0.0);
  }
  r.ratio = median(std::move(ratios));
  return r;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos)
      return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// The limit the baseline recorded for `metric`, read from the emitter's
/// own compact output (there is no JSON parser in the repo).
bool baseline_limit(const std::string& json, const std::string& metric,
                    double* limit) {
  const std::size_t at = json.find("{\"metric\":\"" + metric + "\",");
  if (at == std::string::npos) return false;
  const std::string needle = "\"limit\":";
  const std::size_t pos = json.find(needle, at);
  if (pos == std::string::npos) return false;
  *limit = std::strtod(json.c_str() + pos + needle.size(), nullptr);
  return true;
}

}  // namespace

Artifact::Artifact(const char* bench) {
  w_.begin_object();
  w_.key("bench").value(bench);
  w_.key("host").begin_object()
      .key("nproc").value(exp::hardware_jobs())
      .key("cpu").value(cpu_model())
      .key("compiler").value(compiler())
      .end_object();
}

void Artifact::gate(const GateRule& rule, double value) {
  gate_.emplace_back(rule, value);
}

int Artifact::publish(const Args& args) {
  std::string baseline;
  if (!args.check.empty()) {
    std::ifstream in(args.check);
    if (!in) {
      std::cerr << "cannot read baseline " << args.check << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    baseline = ss.str();
  }
  bool ok = true;
  w_.key("gate").begin_array();
  for (const auto& [rule, value] : gate_) {
    double limit = rule.scale * value + rule.offset;
    const bool found =
        args.check.empty() || baseline_limit(baseline, rule.metric, &limit);
    const bool at_most = rule.bound == GateRule::kAtMost;
    const bool pass = found && (at_most ? value <= limit : value >= limit);
    ok = ok && pass;
    std::ostringstream line;
    line.precision(9);
    line << "gate " << rule.metric << ": " << value
         << (at_most ? " <= " : " >= ") << limit << (pass ? " ok" : " FAIL")
         << (found ? "" : " (no such entry in the baseline)") << "\n";
    std::cout << line.str();
    w_.begin_object()
        .key("metric").value(rule.metric)
        .key("value").value(value)
        .key("limit").value(limit)
        .end_object();
  }
  w_.end_array();
  w_.end_object();

  if (!args.out.empty()) {
    if (!obs::write_json_file(args.out, w_.str())) {
      std::cerr << "failed to write " << args.out << "\n";
      return 1;
    }
    std::cout << "wrote " << args.out << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace flowvalve::bench
