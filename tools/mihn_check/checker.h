// mihn-check: repo-specific static analysis for determinism, unit safety,
// module layering and concurrency readiness.
//
// Generic linters cannot know that this repo's simulator must be a pure
// function of (topology, workload, seed), or that a raw double crossing a
// public API is one Gbps/GBps confusion away from a factor-of-8 error in
// every experiment. mihn-check encodes those repo invariants as nine rule
// families over the src/ tree, all driven off one shared lexical pass per
// file (see lexer.h):
//
//   D1 unordered-container   std::unordered_{map,set,...} anywhere in
//                            simulation/output code: hash order leaks into
//                            event order and snapshots. Suppress with
//                            // mihn-check: unordered-ok(<reason>)
//   D2 nondet-source         std::rand, random_device, wall clocks,
//                            std::chrono, mt19937, time(...): all
//                            randomness/time must flow through the seeded
//                            sources in src/sim/random.* and src/sim/time.*
//                            (which are exempt). Suppress: nondet-ok(...)
//   D3 raw-unit-param        double parameters named like units (gbps, bw,
//                            *_ns, bytes, latency, ...) in public headers:
//                            use sim::Bandwidth / sim::TimeNs instead.
//                            src/sim/units.* and src/sim/time.* (the unit
//                            layer itself) are exempt. Suppress:
//                            units-ok(...)
//   D4 float-type/float-eq   `float` anywhere, and ==/!= against a
//                            floating-point literal (the lexically
//                            detectable slice of float equality).
//                            Suppress: float-ok(...) / float-eq-ok(...)
//   D5 header-hygiene        include guard must be MIHN_<PATH>_ derived
//                            from the repo-relative path; no
//                            `using namespace` in headers. Suppress:
//                            guard-ok(...) / header-ok(...)
//   D6 layering              the src/ include DAG must respect the module
//                            order declared in tools/mihn_check/layering.txt
//                            (lower layers first): no upward includes, no
//                            undeclared modules, no file-level include
//                            cycles. Tree-level rule — it runs from
//                            CheckTree, not CheckFile. Suppress:
//                            layering-ok(...)
//   D7 mutable-state         non-const namespace-scope variables, non-const
//                            static locals, and non-const static data
//                            members: hidden mutable state breaks
//                            forked-seed trial isolation and will be shared
//                            (unsynchronized) the day the ROADMAP's
//                            parallel runners land. Suppress: mutable-ok(...)
//   D8 api-drift             deprecated symbols (SolveMaxMin) and headers
//                            (src/diagnose/tools.h) are banned everywhere —
//                            both migrations are finished, so the allowlists
//                            are empty and the bans only stop revivals.
//                            Scoped: the telemetry exporters (Snapshot,
//                            SnapshotAll) are banned under src/ outside
//                            src/fabric/ — production readers borrow
//                            LinkView; tests, tools and benches may export.
//                            Suppress: drift-ok(...)
//      owned-clock           HostNetwork must be constructed through the
//                            clock-injection constructors (first argument a
//                            caller-owned sim::Simulation — lexically, the
//                            first constructor argument must mention an
//                            identifier containing "sim"). The owning
//                            wrappers that allocate a private clock are for
//                            downstream users only; sharing one clock is the
//                            fleet seam. Exempt: the wrapper definition
//                            sites (src/host/host_network.{h,cc}) and the
//                            owning-vs-injected equivalence test
//                            (tests/host/host_network_test.cc). Suppress:
//                            clock-ok(...)
//   D9 guarded-by            a class that opts into thread-safety
//                            annotations (any MIHN_GUARDED_BY/MIHN_REQUIRES
//                            marker, or a core::Mutex / core::SyncMutex
//                            member) must annotate every mutable data member
//                            with MIHN_GUARDED_BY(...). const, static,
//                            std::atomic and lock members (Mutex, SyncMutex,
//                            std::mutex — the capability itself) are exempt.
//                            Suppress: guarded-ok(...)
//
// A suppression annotation must sit on the offending line or on an
// immediately preceding comment-only line, and must carry a reason in
// parentheses. Comments and string literals are blanked before rule
// matching, so mentioning a banned token in prose is fine.

#ifndef MIHN_TOOLS_MIHN_CHECK_CHECKER_H_
#define MIHN_TOOLS_MIHN_CHECK_CHECKER_H_

#include <string>
#include <vector>

namespace mihn::check {

struct Finding {
  std::string file;     // Repo-relative path.
  int line = 0;         // 1-based.
  std::string rule;     // e.g. "D1:unordered-container".
  std::string message;  // What fired and how to fix or suppress it.
};

struct Options {
  // Enabled rule families, by prefix: {"D1", ..., "D9"}. Empty means all.
  std::vector<std::string> rules;
  // Path to the layering manifest for D6. Empty skips D6 (the rule is
  // tree-level: it needs the whole include graph, so only CheckTree runs
  // it). An unreadable or malformed manifest is itself a finding.
  std::string layering_file;
};

// Runs every per-file rule against one file. |rel_path| is the path
// relative to the repo root (it drives the per-file exemptions and the
// expected include guard); |content| is the file's full text.
std::vector<Finding> CheckFile(const std::string& rel_path, const std::string& content);
std::vector<Finding> CheckFile(const std::string& rel_path, const std::string& content,
                               const Options& options);

// Walks |targets| (files or directories, relative to |root|), checking
// every *.h / *.cc / *.cpp in deterministic path order, then runs the D6
// layering/cycle checks over the collected include graph when
// |options.layering_file| is set. Unreadable targets produce a synthetic
// finding rather than a silent skip.
std::vector<Finding> CheckTree(const std::string& root, const std::vector<std::string>& targets);
std::vector<Finding> CheckTree(const std::string& root, const std::vector<std::string>& targets,
                               const Options& options);

// "path:line: [rule] message" lines plus a summary line.
std::string FormatFindings(const std::vector<Finding>& findings);

}  // namespace mihn::check

#endif  // MIHN_TOOLS_MIHN_CHECK_CHECKER_H_
