#include "tools/mihn_check/checker.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/mihn_check/include_graph.h"
#include "tools/mihn_check/lexer.h"

namespace mihn::check {
namespace {

// -- Per-file exemptions ------------------------------------------------------

bool IsOneOf(const std::string& rel_path, std::initializer_list<const char*> paths) {
  return std::any_of(paths.begin(), paths.end(),
                     [&](const char* p) { return rel_path == p; });
}

// The seeded randomness / virtual-clock sources: the only files allowed to
// touch nondeterminism primitives.
bool ExemptFromNondet(const std::string& rel_path) {
  return IsOneOf(rel_path,
                 {"src/sim/random.h", "src/sim/random.cc", "src/sim/time.h", "src/sim/time.cc"});
}

// The unit layer itself necessarily traffics in raw doubles.
bool ExemptFromUnitParams(const std::string& rel_path) {
  return IsOneOf(rel_path,
                 {"src/sim/units.h", "src/sim/units.cc", "src/sim/time.h", "src/sim/time.cc"});
}

bool IsHeader(const std::string& rel_path) {
  return rel_path.size() > 2 && rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
}

// -- Rule plumbing ------------------------------------------------------------

bool RuleOn(const Options& options, std::string_view family) {
  if (options.rules.empty()) {
    return true;
  }
  return std::any_of(options.rules.begin(), options.rules.end(),
                     [&](const std::string& r) { return r == family; });
}

struct RuleContext {
  const std::string& rel_path;
  const FileText& ft;
  std::vector<Finding>& findings;
};

void Report(RuleContext& ctx, size_t idx, const std::string& tag, const std::string& rule,
            const std::string& message) {
  if (IsSuppressed(ctx.ft.raw_lines, idx, tag)) {
    return;
  }
  ctx.findings.push_back(
      {ctx.rel_path, static_cast<int>(idx) + 1, rule,
       message + " (suppress with // mihn-check: " + tag + "(<reason>))"});
}

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// -- D1 unordered containers --------------------------------------------------

void RuleUnorderedContainer(RuleContext& ctx) {
  const std::vector<Token>& toks = ctx.ft.tokens;
  int last_line = -1;  // One finding per line, like the v1 per-line scan.
  for (size_t i = 2; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.line == last_line) {
      continue;
    }
    if (t.text != "unordered_map" && t.text != "unordered_set" &&
        t.text != "unordered_multimap" && t.text != "unordered_multiset") {
      continue;
    }
    if (!IsIdent(toks[i - 2], "std") || !IsPunct(toks[i - 1], "::")) {
      continue;
    }
    last_line = t.line;
    Report(ctx, static_cast<size_t>(t.line) - 1, "unordered-ok", "D1:unordered-container",
           "unordered container in simulation/output code: hash order leaks into event "
           "order and snapshots; use std::map/std::set or sort before iterating");
  }
}

// -- D2 nondeterminism sources ------------------------------------------------

void RuleNondetSource(RuleContext& ctx) {
  if (ExemptFromNondet(ctx.rel_path)) {
    return;
  }
  const std::vector<Token>& toks = ctx.ft.tokens;
  int last_line = -1;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.line == last_line) {
      continue;
    }
    const std::string_view x = t.text;
    bool hit = x == "srand" || x == "random_device" || x == "system_clock" ||
               x == "steady_clock" || x == "high_resolution_clock" || x == "mt19937" ||
               x == "clock_gettime" || x == "gettimeofday" || x == "drand48";
    if (!hit && (x == "rand" || x == "chrono") && i >= 2 && IsIdent(toks[i - 2], "std") &&
        IsPunct(toks[i - 1], "::")) {
      hit = true;
    }
    if (!hit && x == "time" && i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
      hit = true;
    }
    if (!hit) {
      continue;
    }
    last_line = t.line;
    Report(ctx, static_cast<size_t>(t.line) - 1, "nondet-ok", "D2:nondet-source",
           "nondeterministic randomness/time source: draw from sim::Rng / sim::TimeNs "
           "(src/sim/random.*, src/sim/time.*) so runs stay a pure function of the seed");
  }
}

// -- D3 raw unit parameters in headers ----------------------------------------

// Identifier segments that imply a physical unit when typed as raw double.
bool IsUnitFlavoredName(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  static const std::initializer_list<const char*> kUnitSegments = {
      "gbps", "mbps", "kbps", "bps", "bw", "bandwidth", "latency", "ns", "bytes"};
  std::stringstream ss(name);
  std::string seg;
  while (std::getline(ss, seg, '_')) {
    if (std::any_of(kUnitSegments.begin(), kUnitSegments.end(),
                    [&](const char* u) { return seg == u; })) {
      return true;
    }
  }
  return false;
}

void RuleRawUnitParam(RuleContext& ctx) {
  if (!IsHeader(ctx.rel_path) || ExemptFromUnitParams(ctx.rel_path)) {
    return;
  }
  const std::vector<Token>& toks = ctx.ft.tokens;
  int paren_depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") {
        ++paren_depth;
      } else if (t.text == ")") {
        paren_depth = std::max(0, paren_depth - 1);
      }
      continue;
    }
    // Only parameters (paren depth >= 1) are considered — struct members
    // and return types stay legal.
    if (paren_depth >= 1 && IsIdent(t, "double") && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent && IsUnitFlavoredName(std::string(toks[i + 1].text))) {
      Report(ctx, static_cast<size_t>(t.line) - 1, "units-ok", "D3:raw-unit-param",
             "raw double parameter '" + std::string(toks[i + 1].text) +
                 "' carries a unit in its name: pass sim::Bandwidth / sim::TimeNs so the "
                 "Gbps-vs-GBps factor of 8 cannot slip through this API");
    }
  }
}

// -- D4 float types and float-literal equality --------------------------------

void RuleFloat(RuleContext& ctx) {
  const std::vector<Token>& toks = ctx.ft.tokens;
  int last_type_line = -1;
  int last_eq_line = -1;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsIdent(t, "float") && t.line != last_type_line) {
      last_type_line = t.line;
      Report(ctx, static_cast<size_t>(t.line) - 1, "float-ok", "D4:float-type",
             "float narrows silently and diverges across compilers; use double");
    }
    if (t.kind == TokKind::kPunct && (t.text == "==" || t.text == "!=") &&
        t.line != last_eq_line) {
      size_t r = i + 1;
      if (r < toks.size() && (IsPunct(toks[r], "+") || IsPunct(toks[r], "-"))) {
        ++r;
      }
      const bool right = r < toks.size() && toks[r].kind == TokKind::kNumber &&
                         IsFloatLiteral(toks[r].text);
      const bool left =
          i > 0 && toks[i - 1].kind == TokKind::kNumber && IsFloatLiteral(toks[i - 1].text);
      if (right || left) {
        last_eq_line = t.line;
        Report(ctx, static_cast<size_t>(t.line) - 1, "float-eq-ok", "D4:float-eq",
               "==/!= against a floating-point literal: compare with an explicit tolerance, "
               "or annotate why exact equality is the intended semantics");
      }
    }
  }
}

// -- D5 header hygiene --------------------------------------------------------

std::string ExpectedGuard(const std::string& rel_path) {
  std::string guard = "MIHN_";
  for (const char c : rel_path) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

void RuleHeaderHygiene(RuleContext& ctx) {
  if (!IsHeader(ctx.rel_path)) {
    return;
  }
  const std::string expected = ExpectedGuard(ctx.rel_path);
  bool guard_seen = false;
  for (size_t i = 0; i < ctx.ft.code_lines.size(); ++i) {
    const std::string line = Trim(ctx.ft.code_lines[i]);
    if (!guard_seen && line.rfind("#ifndef", 0) == 0) {
      guard_seen = true;
      const std::string macro = Trim(line.substr(7));
      if (macro != expected) {
        Report(ctx, i, "guard-ok", "D5:include-guard",
               "include guard '" + macro + "' does not match path-derived '" + expected + "'");
      }
    }
    if (line.rfind("using namespace", 0) == 0 || line.find(" using namespace ") != std::string::npos) {
      Report(ctx, i, "header-ok", "D5:using-namespace",
             "'using namespace' in a header pollutes every includer; qualify names instead");
    }
  }
  if (!guard_seen) {
    Report(ctx, 0, "guard-ok", "D5:include-guard",
           "header has no #ifndef include guard (expected '" + ExpectedGuard(ctx.rel_path) + "')");
  }
}

// -- D8 api drift -------------------------------------------------------------

// Banned identifiers, matched as exact tokens (so SolveMaxMinReference,
// the retained oracle, never trips the SolveMaxMin ban). A ban applies to
// paths under |scope| ("" = everywhere) except those under |home|.
struct BannedToken {
  const char* token;
  const char* hint;
  std::initializer_list<const char*> allowlist;  // Definition sites + differential tests.
  const char* scope = "";
  const char* home = nullptr;
};

const BannedToken kBannedTokens[] = {
    {"SolveMaxMin",
     "deprecated one-shot solver; use MaxMinSolver (Begin/AddFlow/Commit, or the retained "
     "SolveDelta path for incremental updates)",
     {}},  // Fully retired: even the solver sources no longer say the name.
    // The telemetry exporters copy tenant maps; production readers outside
    // the fabric borrow views. Tests, tools and benchmarks may export.
    {"Snapshot",
     "copies the link's tenant maps; production readers borrow the zero-copy view "
     "(Fabric::View / VisitLinks) — the exporters are for tests, tools and benchmarks",
     {},
     "src/",
     "src/fabric/"},
    {"SnapshotAll",
     "copies every link's tenant maps; production readers borrow the zero-copy view "
     "(Fabric::VisitLinks) — the exporters are for tests, tools and benchmarks",
     {},
     "src/",
     "src/fabric/"},
};

bool InBanScope(const std::string& rel_path, const BannedToken& ban) {
  const auto under = [&rel_path](const char* prefix) { return rel_path.rfind(prefix, 0) == 0; };
  return under(ban.scope) && (ban.home == nullptr || !under(ban.home));
}

// Deprecated headers, banned as include targets.
struct BannedInclude {
  const char* path;
  const char* hint;
  std::initializer_list<const char*> allowlist;
};

const BannedInclude kBannedIncludes[] = {
    {"src/diagnose/tools.h",
     "deleted free-function probe wrappers; use diagnose::Session "
     "(Ping/Trace/Perf/Capture with the common ProbeReport header)",
     {}},  // Fully retired: the header was deleted, the ban stops revivals.
};

void RuleApiDrift(RuleContext& ctx) {
  for (const BannedToken& ban : kBannedTokens) {
    if (IsOneOf(ctx.rel_path, ban.allowlist) || !InBanScope(ctx.rel_path, ban)) {
      continue;
    }
    int last_line = -1;
    for (const Token& t : ctx.ft.tokens) {
      if (t.kind != TokKind::kIdent || t.text != ban.token || t.line == last_line) {
        continue;
      }
      last_line = t.line;
      Report(ctx, static_cast<size_t>(t.line) - 1, "drift-ok", "D8:api-drift",
             "'" + std::string(ban.token) + "': " + ban.hint);
    }
  }
  for (const BannedInclude& ban : kBannedIncludes) {
    if (IsOneOf(ctx.rel_path, ban.allowlist)) {
      continue;
    }
    for (const IncludeRef& inc : ctx.ft.includes) {
      if (inc.quoted && inc.path == ban.path) {
        Report(ctx, static_cast<size_t>(inc.line) - 1, "drift-ok", "D8:api-drift",
               "#include \"" + std::string(ban.path) + "\": " + ban.hint);
      }
    }
  }
}

// -- D8 owned clock -----------------------------------------------------------
//
// HostNetwork's owning constructors (which allocate a private
// sim::Simulation) are compatibility wrappers for downstream users; repo
// code must use the clock-injection constructors so hosts can share one
// virtual clock (the fleet seam). Lexical heuristic: at every HostNetwork
// construction expression, the first constructor argument must mention an
// identifier containing "sim" — `sim`, `simulation()`, `*sim_`,
// `fleet.simulation()` all qualify; `options`, `Quiet()`, empty argument
// lists do not. Misclassification degrades to a false finding carrying the
// clock-ok suppression hint, never a crash.

// Wrapper definition sites, plus the one test that exercises the owning
// wrappers' equivalence with the injected path.
bool ExemptFromOwnedClock(const std::string& rel_path) {
  return IsOneOf(rel_path, {"src/host/host_network.h", "src/host/host_network.cc",
                            "tests/host/host_network_test.cc"});
}

bool MentionsSimIdent(const std::vector<Token>& toks, size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) {
      continue;
    }
    std::string lower(toks[i].text);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (lower.find("sim") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// The end (exclusive) of the first constructor argument starting at
// |begin|: the first top-level ',' or the matching close of |open|.
size_t FirstArgEnd(const std::vector<Token>& toks, size_t begin, std::string_view open) {
  const std::string_view close = open == "(" ? ")" : "}";
  int depth = 0;
  for (size_t i = begin; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) {
      continue;
    }
    if (t.text == "(" || t.text == "{" || t.text == "[") {
      ++depth;
    } else if (t.text == ")" || t.text == "}" || t.text == "]") {
      if (depth == 0 && t.text == close) {
        return i;
      }
      --depth;
    } else if (t.text == "," && depth == 0) {
      return i;
    }
  }
  return toks.size();
}

void RuleOwnedClock(RuleContext& ctx) {
  if (ExemptFromOwnedClock(ctx.rel_path)) {
    return;
  }
  const std::vector<Token>& toks = ctx.ft.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "HostNetwork")) {
      continue;
    }
    // Skip non-construction mentions: class/struct declarations, qualified
    // names (HostNetwork::Preset), and pure type positions (HostNetwork&,
    // HostNetwork*, parameter lists).
    if (i > 0 && (IsIdent(toks[i - 1], "class") || IsIdent(toks[i - 1], "struct"))) {
      continue;
    }
    if (i + 1 >= toks.size()) {
      continue;
    }
    size_t args_begin = 0;
    std::string_view open;
    const Token& next = toks[i + 1];
    if (IsPunct(next, ">") && i + 2 < toks.size() && IsPunct(toks[i + 2], "(")) {
      // make_unique<HostNetwork>(...) and friends.
      args_begin = i + 3;
      open = "(";
    } else if (next.kind == TokKind::kIdent) {
      // HostNetwork host(...);  HostNetwork host{...};  HostNetwork host;
      if (i + 2 >= toks.size()) {
        continue;
      }
      const Token& after_name = toks[i + 2];
      if (IsPunct(after_name, ";")) {
        Report(ctx, static_cast<size_t>(toks[i].line) - 1, "clock-ok", "D8:owned-clock",
               "default-constructed HostNetwork owns a private clock; inject a shared "
               "sim::Simulation (HostNetwork host(sim)) so hosts can share virtual time");
        continue;
      }
      if (!IsPunct(after_name, "(") && !IsPunct(after_name, "{")) {
        continue;
      }
      args_begin = i + 3;
      open = after_name.text;
    } else {
      continue;
    }
    if (args_begin == 0) {
      continue;
    }
    const size_t args_end = FirstArgEnd(toks, args_begin, open);
    if (args_end == args_begin || !MentionsSimIdent(toks, args_begin, args_end)) {
      Report(ctx, static_cast<size_t>(toks[i].line) - 1, "clock-ok", "D8:owned-clock",
             "HostNetwork constructed through an owning (private-clock) constructor; pass "
             "a caller-owned sim::Simulation as the first argument instead");
    }
  }
}

// -- D7 mutable state & D9 guarded-by (shared structural pass) ----------------
//
// A lightweight scope walk over the token stream: every '{' is classified
// from the declaration tokens preceding it (namespace / class / enum /
// function / brace-initializer), declarations are segmented on ';' (and on
// access specifiers inside classes), and each segment is analyzed once for
// both rules. This is deliberately a heuristic parse — it only has to be
// exact on the constructs this codebase and the fixtures actually use, and
// misclassification degrades to a missed finding, never a crash.

enum class ScopeKind { kNamespace, kClass, kEnum, kFunction, kInit };

bool IsTsaMarker(std::string_view x) {
  return x == "MIHN_GUARDED_BY" || x == "MIHN_PT_GUARDED_BY" || x == "MIHN_REQUIRES" ||
         x == "MIHN_EXCLUDES" || x == "MIHN_ACQUIRE" || x == "MIHN_RELEASE" ||
         x == "MIHN_CAPABILITY" || x == "MIHN_SCOPED_CAPABILITY" ||
         x == "MIHN_RETURN_CAPABILITY" || x == "MIHN_NO_THREAD_SAFETY_ANALYSIS";
}

// Tokens from lines that are not preprocessor directives (directive bodies
// would corrupt scope tracking; macro *uses* still appear because they sit
// on ordinary lines).
std::vector<Token> StructuralTokens(const FileText& ft) {
  std::vector<bool> pp(ft.code_lines.size(), false);
  bool continued = false;
  for (size_t i = 0; i < ft.code_lines.size(); ++i) {
    const std::string t = Trim(ft.code_lines[i]);
    const bool is_pp = continued || (!t.empty() && t[0] == '#');
    pp[i] = is_pp;
    continued = is_pp && !t.empty() && t.back() == '\\';
  }
  std::vector<Token> out;
  out.reserve(ft.tokens.size());
  for (const Token& t : ft.tokens) {
    const size_t idx = static_cast<size_t>(t.line) - 1;
    if (idx < pp.size() && pp[idx]) {
      continue;
    }
    out.push_back(t);
  }
  return out;
}

ScopeKind ClassifyBrace(const std::vector<Token>& toks, size_t b, size_t brace,
                        ScopeKind parent) {
  if (parent == ScopeKind::kFunction) {
    return ScopeKind::kFunction;  // Blocks, lambdas and init-lists inside code.
  }
  if (parent == ScopeKind::kInit || parent == ScopeKind::kEnum) {
    return ScopeKind::kInit;
  }
  bool saw_namespace = false;
  bool saw_class = false;
  bool saw_enum = false;
  bool saw_eq = false;
  int paren = 0;
  for (size_t i = b; i < brace; ++i) {
    const Token& t = toks[i];
    if (IsIdent(t, "template") && i + 1 < brace && IsPunct(toks[i + 1], "<")) {
      int angle = 0;  // Skip the parameter list: `template <class T>` is not a class.
      size_t j = i + 1;
      for (; j < brace; ++j) {
        if (IsPunct(toks[j], "<")) {
          ++angle;
        } else if (IsPunct(toks[j], ">") && --angle == 0) {
          break;
        }
      }
      i = j;
      continue;
    }
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") {
        ++paren;
      } else if (t.text == ")") {
        paren = std::max(0, paren - 1);
      } else if (t.text == "=" && paren == 0) {
        saw_eq = true;
      }
      continue;
    }
    if (t.kind != TokKind::kIdent || paren != 0) {
      continue;
    }
    if (t.text == "namespace") {
      saw_namespace = true;
    } else if (t.text == "class" || t.text == "struct" || t.text == "union") {
      saw_class = true;
    } else if (t.text == "enum") {
      saw_enum = true;
    }
  }
  if (saw_enum) {
    return ScopeKind::kEnum;
  }
  if (saw_namespace) {
    return ScopeKind::kNamespace;
  }
  if (saw_class) {
    return ScopeKind::kClass;
  }
  if (b >= brace) {
    return ScopeKind::kInit;
  }
  if (IsIdent(toks[b], "extern")) {
    return ScopeKind::kNamespace;  // extern "C" { ... } holds declarations.
  }
  if (saw_eq) {
    return ScopeKind::kInit;
  }
  const Token& last = toks[brace - 1];
  if (IsPunct(last, ")") ||
      (last.kind == TokKind::kIdent &&
       (last.text == "const" || last.text == "noexcept" || last.text == "override" ||
        last.text == "final" || last.text == "try"))) {
    return ScopeKind::kFunction;
  }
  return ScopeKind::kInit;  // `int x_{0}`, aggregate initializers, ...
}

struct SegmentInfo {
  bool skip = false;         // Not a variable/member declaration.
  bool is_function = false;  // '(' at top level before any '=' — a declarator of a callable.
  bool has_const = false;
  bool has_static = false;
  bool has_guard = false;       // MIHN_GUARDED_BY / MIHN_PT_GUARDED_BY present.
  bool has_tsa_marker = false;  // Any thread-safety annotation present.
  bool is_mutex = false;        // Declares the capability itself.
  bool is_atomic = false;       // std::atomic members are internally synchronized.
  int first_line = 0;
  std::string name;  // Last top-level identifier before '=' / '[' — the declared name.
};

SegmentInfo AnalyzeDecl(const std::vector<Token>& toks, size_t b, size_t e) {
  SegmentInfo info;
  if (b >= e) {
    info.skip = true;
    return info;
  }
  info.first_line = toks[b].line;
  const Token& first = toks[b];
  if (first.kind == TokKind::kIdent &&
      (first.text == "using" || first.text == "typedef" || first.text == "friend" ||
       first.text == "template" || first.text == "extern" || first.text == "static_assert" ||
       first.text == "namespace" || first.text == "class" || first.text == "struct" ||
       first.text == "union" || first.text == "enum" || first.text == "return" ||
       first.text == "goto")) {
    info.skip = true;
    return info;
  }
  int paren = 0;
  int angle = 0;
  bool past_eq = false;
  size_t ident_count = 0;
  for (size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      const std::string_view p = t.text;
      if (p == "(") {
        if (!past_eq && paren == 0 && angle == 0) {
          info.is_function = true;
        }
        ++paren;
      } else if (p == ")") {
        paren = std::max(0, paren - 1);
      } else if (p == "<" && paren == 0) {
        ++angle;
      } else if (p == ">" && paren == 0) {
        angle = std::max(0, angle - 1);
      } else if ((p == "=" || p == "[") && paren == 0 && angle == 0) {
        past_eq = true;  // The declared name cannot appear past '=' or an array bound.
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) {
      continue;
    }
    const std::string_view x = t.text;
    if (IsTsaMarker(x)) {
      info.has_tsa_marker = true;
      if (x == "MIHN_GUARDED_BY" || x == "MIHN_PT_GUARDED_BY") {
        info.has_guard = true;
      }
      if (i + 1 < e && IsPunct(toks[i + 1], "(")) {
        int d = 0;  // Skip the annotation's arguments: `(mu_)` is not the member name.
        size_t j = i + 1;
        for (; j < e; ++j) {
          if (IsPunct(toks[j], "(")) {
            ++d;
          } else if (IsPunct(toks[j], ")") && --d == 0) {
            break;
          }
        }
        i = j;
      }
      continue;
    }
    if (past_eq || paren != 0) {
      continue;
    }
    if (x == "operator") {
      info.is_function = true;  // Operator declarators confuse the angle tracker.
    } else if ((x == "const" || x == "constexpr" || x == "constinit") && angle == 0) {
      info.has_const = true;
    } else if (x == "static" || x == "thread_local") {
      info.has_static = true;
    } else if (x == "Mutex" || x == "MutexLock" || x == "SyncMutex" || x == "SyncMutexLock" ||
               x == "mutex") {
      // Lock objects are the capability itself, never guarded state. "mutex"
      // covers the std::mutex a real lock (core::SyncMutex) wraps.
      info.is_mutex = true;
    } else if (x == "atomic") {
      info.is_atomic = true;
    }
    if (angle == 0) {
      info.name = std::string(x);
      ++ident_count;
    }
  }
  if (ident_count < 2) {
    info.skip = true;  // A declaration needs at least a type and a name.
  }
  return info;
}

struct ClassScope {
  bool annotated = false;  // Opted into thread-safety checking (D9).
  struct Member {
    int line;
    std::string name;
    bool guarded;
    bool exempt;
  };
  std::vector<Member> members;
};

void FinishClass(RuleContext& ctx, const ClassScope& cs, bool d9) {
  if (!d9 || !cs.annotated) {
    return;
  }
  for (const ClassScope::Member& m : cs.members) {
    if (m.guarded || m.exempt) {
      continue;
    }
    Report(ctx, static_cast<size_t>(m.line) - 1, "guarded-ok", "D9:guarded-by",
           "mutable member '" + m.name +
               "' of a thread-safety-annotated class has no MIHN_GUARDED_BY(...): every "
               "member the lock protects must say so, or be const/atomic");
  }
}

void RuleStructural(RuleContext& ctx, bool d7, bool d9) {
  const std::vector<Token> toks = StructuralTokens(ctx.ft);
  std::vector<ScopeKind> scopes{ScopeKind::kNamespace};
  std::vector<ClassScope> classes;

  auto handle_segment = [&](size_t b, size_t e) {
    const ScopeKind scope = scopes.back();
    if (scope == ScopeKind::kEnum || scope == ScopeKind::kInit) {
      return;
    }
    if (scope == ScopeKind::kFunction) {
      if (!d7) {
        return;
      }
      for (size_t i = b; i < e; ++i) {
        if (!IsIdent(toks[i], "static") && !IsIdent(toks[i], "thread_local")) {
          continue;
        }
        bool has_const = false;
        for (size_t j = i + 1; j < e; ++j) {
          if (toks[j].kind == TokKind::kIdent &&
              (toks[j].text == "const" || toks[j].text == "constexpr" ||
               toks[j].text == "constinit")) {
            has_const = true;
            break;
          }
        }
        if (!has_const) {
          Report(ctx, static_cast<size_t>(toks[i].line) - 1, "mutable-ok", "D7:static-local",
                 "non-const static local: state that survives the call breaks forked-seed "
                 "trial isolation and races the moment callers run on two threads");
        }
        break;
      }
      return;
    }
    const SegmentInfo info = AnalyzeDecl(toks, b, e);
    if (scope == ScopeKind::kClass && !classes.empty() &&
        (info.has_tsa_marker || (info.is_mutex && !info.is_function))) {
      classes.back().annotated = true;
    }
    if (info.skip || info.is_function) {
      return;
    }
    if (scope == ScopeKind::kNamespace) {
      if (d7 && !info.has_const) {
        Report(ctx, static_cast<size_t>(info.first_line) - 1, "mutable-ok",
               "D7:namespace-scope-state",
               "namespace-scope variable '" + info.name +
                   "' is mutable global state: it aliases across forked-seed trials and "
                   "future parallel runners; make it const/constexpr or pass it explicitly");
      }
      return;
    }
    // Class scope: static members are D7's problem, instance members are D9's.
    if (d7 && info.has_static && !info.has_const) {
      Report(ctx, static_cast<size_t>(info.first_line) - 1, "mutable-ok", "D7:static-member",
             "non-const static data member '" + info.name +
                 "' is shared mutable state across all instances; make it const/constexpr "
                 "or move it into the instance");
    }
    if (d9 && !classes.empty() && !info.has_static) {
      classes.back().members.push_back(
          {info.first_line, info.name, info.has_guard,
           info.has_const || info.is_mutex || info.is_atomic});
    }
  };

  size_t seg = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      const ScopeKind parent = scopes.back();
      const ScopeKind kind = ClassifyBrace(toks, seg, i, parent);
      if (kind == ScopeKind::kInit &&
          (parent == ScopeKind::kNamespace || parent == ScopeKind::kClass)) {
        handle_segment(seg, i);  // `int x = {...};` — the declaration ends at '{'.
      }
      if (parent == ScopeKind::kClass && !classes.empty() && kind == ScopeKind::kFunction) {
        // Inline method definitions carry annotations before their body.
        for (size_t j = seg; j < i; ++j) {
          if (toks[j].kind == TokKind::kIdent && IsTsaMarker(toks[j].text)) {
            classes.back().annotated = true;
            break;
          }
        }
      }
      if (kind == ScopeKind::kClass) {
        classes.push_back({});
        // A capability attribute on the class head opts the class in too.
        for (size_t j = seg; j < i; ++j) {
          if (toks[j].kind == TokKind::kIdent && IsTsaMarker(toks[j].text)) {
            classes.back().annotated = true;
            break;
          }
        }
      }
      scopes.push_back(kind);
      seg = i + 1;
    } else if (IsPunct(t, "}")) {
      if (scopes.size() > 1) {
        if (scopes.back() == ScopeKind::kClass && !classes.empty()) {
          FinishClass(ctx, classes.back(), d9);
          classes.pop_back();
        }
        scopes.pop_back();
      }
      seg = i + 1;
    } else if (IsPunct(t, ";")) {
      handle_segment(seg, i);
      seg = i + 1;
    } else if (scopes.back() == ScopeKind::kClass && t.kind == TokKind::kIdent &&
               (t.text == "public" || t.text == "private" || t.text == "protected") &&
               i + 1 < toks.size() && IsPunct(toks[i + 1], ":")) {
      seg = i + 2;
      ++i;
    }
  }
}

// -- Per-file driver ----------------------------------------------------------

std::vector<Finding> CheckFileText(const std::string& rel_path, const FileText& ft,
                                   const Options& options) {
  std::vector<Finding> findings;
  RuleContext ctx{rel_path, ft, findings};
  if (RuleOn(options, "D1")) {
    RuleUnorderedContainer(ctx);
  }
  if (RuleOn(options, "D2")) {
    RuleNondetSource(ctx);
  }
  if (RuleOn(options, "D3")) {
    RuleRawUnitParam(ctx);
  }
  if (RuleOn(options, "D4")) {
    RuleFloat(ctx);
  }
  if (RuleOn(options, "D5")) {
    RuleHeaderHygiene(ctx);
  }
  if (RuleOn(options, "D8")) {
    RuleApiDrift(ctx);
    RuleOwnedClock(ctx);
  }
  const bool d7 = RuleOn(options, "D7");
  const bool d9 = RuleOn(options, "D9");
  if (d7 || d9) {
    RuleStructural(ctx, d7, d9);
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return findings;
}

}  // namespace

std::vector<Finding> CheckFile(const std::string& rel_path, const std::string& content) {
  return CheckFile(rel_path, content, Options{});
}

std::vector<Finding> CheckFile(const std::string& rel_path, const std::string& content,
                               const Options& options) {
  return CheckFileText(rel_path, Preprocess(content), options);
}

std::vector<Finding> CheckTree(const std::string& root, const std::vector<std::string>& targets) {
  return CheckTree(root, targets, Options{});
}

std::vector<Finding> CheckTree(const std::string& root, const std::vector<std::string>& targets,
                               const Options& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> rel_files;
  std::vector<Finding> findings;
  for (const std::string& target : targets) {
    const fs::path full = fs::path(root) / target;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(full, ec)) {
        if (!entry.is_regular_file()) {
          continue;
        }
        // Fixture trees are deliberately rule-violating; scanning them
        // would drown real findings.
        const std::string rel = fs::relative(entry.path(), root).generic_string();
        if (rel.find("testdata/") != std::string::npos) {
          continue;
        }
        const std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
          rel_files.push_back(fs::relative(entry.path(), root).generic_string());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      rel_files.push_back(fs::path(target).generic_string());
    } else {
      findings.push_back({target, 0, "io", "target not found under root '" + root + "'"});
    }
  }
  std::sort(rel_files.begin(), rel_files.end());
  rel_files.erase(std::unique(rel_files.begin(), rel_files.end()), rel_files.end());

  const bool d6 = RuleOn(options, "D6") && !options.layering_file.empty();
  std::map<std::string, GraphFile> graph;
  for (const std::string& rel : rel_files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      findings.push_back({rel, 0, "io", "unreadable file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const FileText ft = Preprocess(buf.str());
    const std::vector<Finding> file_findings = CheckFileText(rel, ft, options);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
    if (d6) {
      graph.emplace(rel, GraphFile{ft.includes, ft.raw_lines});
    }
  }
  if (d6) {
    const Layering layering = LoadLayering(options.layering_file);
    const std::vector<Finding> d6_findings = CheckLayering(layering, graph);
    findings.insert(findings.end(), d6_findings.begin(), d6_findings.end());
  }
  return findings;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  out << (findings.empty() ? "mihn-check: clean\n"
                           : "mihn-check: " + std::to_string(findings.size()) +
                                 " unsuppressed finding(s)\n");
  return out.str();
}

}  // namespace mihn::check
