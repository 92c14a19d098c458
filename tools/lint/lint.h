// Project-specific lint checks that clang-tidy cannot express.
//
// Four invariants the codebase relies on but no compiler enforces:
//
//   1. MergeRunMetrics completeness — every field of RunMetrics must be
//      handled in MergeRunMetrics. Adding a counter to the struct and
//      forgetting the merge silently zeroes it in every multi-shard
//      Session report; this was a recurring review catch before the checker.
//   2. No raw threading primitives outside src/common/ — std::mutex,
//      std::thread and friends must go through the annotated wrappers in
//      src/common/mutex.h and src/common/thread.h so Clang Thread Safety
//      Analysis sees every lock. (std::this_thread and std::atomic are
//      fine: TSA does not model them and the wrappers add nothing.)
//   3. No wall-clock or nondeterminism sources outside the clock/seed
//      plumbing — every timestamp must flow through ClockNow/clock_override
//      and every random draw through hamlet::Rng, or runs stop being
//      replayable from a seed.
//   4. No TODO/FIXME without an issue reference — `TODO(#123): ...` keeps
//      the backlog queryable; a bare TODO is a note to nobody.
//
// The checks are deliberately textual (comment-aware substring scans, not a
// parser): they run on fixtures in the self-test and on the real tree in
// CTest, and a textual rule is cheap enough to keep at zero false positives
// by allowlisting the few legitimate sites.
#ifndef HAMLET_TOOLS_LINT_LINT_H_
#define HAMLET_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace hamlet {
namespace lint {

/// One lint violation. `path` is whatever the caller passed in (relative
/// paths read better in CI logs), `line` is 1-based.
struct Finding {
  std::string path;
  int line = 0;
  std::string check;    // e.g. "raw-threading"
  std::string message;  // human-readable, includes the offending token
};

/// Replaces // and /* */ comment bodies and string/char literals with
/// spaces, preserving byte offsets and newlines so line numbers survive.
/// All checks below scan the stripped text: a comment that *mentions*
/// std::mutex is documentation, not a violation.
std::string StripCommentsAndStrings(const std::string& source);

/// Check 1: every field declared in `struct RunMetrics { ... }` (in
/// `header`) must appear as a member access in the body of
/// MergeRunMetrics (in `impl`). `header_path`/`impl_path` label findings.
std::vector<Finding> CheckMergeRunMetricsComplete(const std::string& header,
                                                  const std::string& impl,
                                                  const std::string& header_path,
                                                  const std::string& impl_path);

/// Parses the field names of `struct RunMetrics` out of a header. Exposed
/// for the self-test; returns an empty vector when the struct is missing.
std::vector<std::string> ParseRunMetricsFields(const std::string& header);

/// Check 2: raw std::mutex/std::thread/condition_variable/lock types.
/// `rel_path` is the path relative to the scanned root; files under
/// common/ are exempt (they implement the wrappers).
std::vector<Finding> CheckNoRawThreading(const std::string& rel_path,
                                         const std::string& source);

/// Check 3: wall-clock reads and nondeterminism sources. `rel_path` is
/// relative to the scanned root; the clock plumbing (runtime/session.cc,
/// which defines MonotonicSeconds as the single steady_clock site) is
/// exempt.
std::vector<Finding> CheckNoWallClock(const std::string& rel_path,
                                      const std::string& source);

/// Check 4: TODO/FIXME comments must carry an issue reference in the form
/// TODO(#123). Scans the ORIGINAL source (the targets live in comments).
std::vector<Finding> CheckTodoHasIssue(const std::string& rel_path,
                                       const std::string& source);

/// Runs checks 2–4 on one file (check 1 needs the header/impl pair and is
/// invoked separately by the driver).
std::vector<Finding> CheckFile(const std::string& rel_path,
                               const std::string& source);

}  // namespace lint
}  // namespace hamlet

#endif  // HAMLET_TOOLS_LINT_LINT_H_
