#include "support/report.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

namespace cnet::bench {

namespace {

// Accumulated state for the JSON sink. Bench drivers are single-threaded
// main() programs, so plain statics are fine here.
struct JsonState {
  std::string current_section;
  struct CapturedTable {
    std::string section;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<CapturedTable> tables;
  std::vector<std::pair<std::string, bool>> checks;
  std::set<std::string> check_names;
};

JsonState& json_state() {
  static JsonState state;
  return state;
}

void write_json(std::ostream& os) {
  const auto& state = json_state();
  os << "{\n  \"tables\": [";
  for (std::size_t t = 0; t < state.tables.size(); ++t) {
    const auto& table = state.tables[t];
    os << (t == 0 ? "\n" : ",\n");
    os << "    {\"section\": \"" << json_escape(table.section)
       << "\", \"rows\": [";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "      {";
      for (std::size_t c = 0; c < table.headers.size(); ++c) {
        if (c > 0) os << ", ";
        os << '"' << json_escape(table.headers[c]) << "\": \""
           << json_escape(table.rows[r][c]) << '"';
      }
      os << '}';
    }
    os << "\n    ]}";
  }
  os << "\n  ],\n  \"checks\": {";
  for (std::size_t i = 0; i < state.checks.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escape(state.checks[i].first)
       << "\": " << (state.checks[i].second ? "true" : "false");
  }
  os << "\n  }\n}\n";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\f': out += "\\f"; break;
      case '\r': out += "\\r"; break;
      default:
        // Remaining C0 controls get the \u00XX form; everything else
        // (including UTF-8 multibyte sequences) passes through untouched.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ReportOptions ReportOptions::parse(int argc, char** argv) {
  ReportOptions opts;
  const auto usage = [argv](std::FILE* out) {
    std::fprintf(out, "usage: %s [--csv] [--smoke] [--json FILE]\n", argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--csv")) {
      opts.csv = true;
    } else if (!std::strcmp(argv[i], "--smoke")) {
      opts.smoke = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs a file path\n");
        usage(stderr);
        std::exit(2);
      }
      opts.json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--help") ||
               !std::strcmp(argv[i], "-h")) {
      usage(stderr);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
  }
  return opts;
}

void section(const std::string& title) {
  json_state().current_section = title;
  const std::string bar(65, '=');
  std::printf("%s\n %s\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

void emit(const util::Table& table, const ReportOptions& opts,
          std::ostream& os) {
  if (!opts.json_path.empty()) {
    json_state().tables.push_back({json_state().current_section,
                                   table.headers(), table.rows()});
  }
  // An empty table is never a valid result — it means a sweep produced no
  // rows (degenerate smoke window, broken config) and every named check
  // computed over it passed vacuously. Record it as a failed check so the
  // run exits nonzero instead of shipping a hollow artifact.
  if (table.num_rows() == 0) {
    check("table_nonempty[" + json_state().current_section + "]", false,
          opts);
  }
  if (opts.csv) {
    os << table.to_csv();
  } else {
    table.print(os);
  }
}

void note(const std::string& text, const ReportOptions& opts) {
  if (!opts.csv) std::printf("%s\n", text.c_str());
}

void check(const std::string& name, bool passed, const ReportOptions&) {
  JsonState& state = json_state();
  if (!state.check_names.insert(name).second) {
    // The repeated reading is dropped (recording it would put duplicate
    // keys in the JSON checks object, where a later pass can shadow an
    // earlier failure) and replaced by a failed sentinel, so the run exits
    // nonzero regardless of what the shadowing reading said.
    std::fprintf(stderr,
                 "DUPLICATE CHECK NAME: %s (reading %s dropped)\n",
                 name.c_str(), passed ? "pass" : "FAIL");
    const std::string sentinel = "duplicate_check_name[" + name + "]";
    if (state.check_names.insert(sentinel).second) {
      state.checks.emplace_back(sentinel, false);
    }
    return;
  }
  state.checks.emplace_back(name, passed);
  if (!passed) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  }
}

std::string fmt_rate(double ops_per_sec) {
  char buf[32];
  if (ops_per_sec >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fG/s", ops_per_sec / 1e9);
  } else if (ops_per_sec >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM/s", ops_per_sec / 1e6);
  } else if (ops_per_sec >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk/s", ops_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f/s", ops_per_sec);
  }
  return buf;
}

std::string fmt_ns(std::optional<double> ns) {
  if (!ns) return "-";
  char buf[32];
  if (*ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fms", *ns / 1e6);
  } else if (*ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2fus", *ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fns", *ns);
  }
  return buf;
}

void reset_for_testing() { json_state() = JsonState{}; }

int finish(const ReportOptions& opts) {
  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write JSON report to '%s'\n",
                   opts.json_path.c_str());
      return 1;
    }
    write_json(out);
  }
  for (const auto& [name, passed] : json_state().checks) {
    if (!passed) return 1;
  }
  return 0;
}

}  // namespace cnet::bench
