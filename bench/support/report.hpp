// Shared console-report scaffolding for the bench drivers: section banners,
// table passthrough, a tiny common argument convention (--csv switches
// every table to CSV, --smoke shrinks runs for CI), and an optional
// machine-readable JSON sink (--json FILE) that captures every emitted
// table plus named pass/fail invariant checks — the artifact CI uploads
// and gates on.
#pragma once

#include <iostream>
#include <optional>
#include <string>

#include "cnet/util/table.hpp"

namespace cnet::bench {

// Parses the arguments shared by every driver. `--help` prints usage and
// exits 0; an unrecognized `-`-prefixed flag prints usage and exits 2 (the
// drivers take no other flags).
struct ReportOptions {
  bool csv = false;
  // CI bit-rot guard: benches with timed live phases shrink to tiny
  // windows and thread sweeps (numbers become meaningless, but every code
  // path still runs); table-only benches ignore it.
  bool smoke = false;
  // When non-empty, finish() writes a JSON report of every table emitted
  // and every check recorded to this path.
  std::string json_path;

  static ReportOptions parse(int argc, char** argv);
};

// RFC-8259 string escaping for the JSON sink: quotes, backslashes, the
// short control escapes (\b \t \n \f \r) and \u00XX for every other
// character below 0x20 — so a check or section name can never emit invalid
// JSON and silently corrupt the artifact CI gates on. Exposed for tests.
std::string json_escape(const std::string& s);

// "==== title ====" banner, width-matched to the tables.
void section(const std::string& title);

// Prints the table as aligned text, or CSV when --csv was given. Also
// captures the table (under the most recent section title) into the JSON
// report when --json is active.
void emit(const util::Table& table, const ReportOptions& opts,
          std::ostream& os = std::cout);

// Footnote paragraph under a table. Skipped in CSV mode, where only table
// rows and '='/'-' framed banners reach stdout, so row extraction stays a
// simple grep.
void note(const std::string& text, const ReportOptions& opts);

// Records a named invariant check (e.g. "conservation"). Failed checks make
// finish() return nonzero, so CI can gate on bench invariants without
// parsing output; they are also echoed to stderr immediately.
//
// Names are unique per run: the JSON sink renders checks as an object, so a
// repeated name would produce duplicate keys and a later passing reading
// could silently mask an earlier failure in whatever parses the artifact.
// A duplicate is therefore rejected loudly — the repeated reading is echoed
// to stderr but not recorded, and a synthetic failed check
// "duplicate_check_name[NAME]" is recorded in its place, so the run exits
// nonzero no matter what the shadowing reading said.
void check(const std::string& name, bool passed, const ReportOptions& opts);

// Clears the process-global report state (sections, captured tables,
// checks). Bench drivers never need this — it exists so test_report_json
// can run several independent report lifecycles in one process.
void reset_for_testing();

// "12.3M/s"-style rate for table cells.
std::string fmt_rate(double ops_per_sec);
// "1.2us"-style duration for table cells; "-" for nullopt.
std::string fmt_ns(std::optional<double> ns);

// Writes the JSON report when --json was given and returns the driver's
// exit code: 0 when every recorded check passed, 1 otherwise. Call as the
// last line of main().
int finish(const ReportOptions& opts);

}  // namespace cnet::bench
