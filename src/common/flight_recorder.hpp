// Always-on flight recorder: a lock-free, fixed-size per-thread ring of
// compact binary records mirroring the JSONL trace schema (check and stage
// spans, FAN decisions/backtracks, cache hits, serve request lifecycle).
//
// Unlike the trace sink — opt-in, allocating, unbounded — the recorder is
// meant to stay on in production: each record is one 64-byte struct copy
// into a thread-local ring plus one release store, with no allocation, no
// locks and no formatting on the hot path. The rings hold the last ~4096
// records per thread; when something goes wrong (watchdog stall, deadline
// expiry, fatal signal, explicit `--blackbox DIR`) the rings are merged
// chronologically and dumped as explain-compatible JSONL, so `waveck
// explain` can reconstruct the final seconds before the incident.
//
// Concurrency model: each ring has exactly one writer (its owning thread).
// The head index is published with a release store after the record body,
// and readers re-check the head after copying to discard records that were
// overwritten mid-read (seqlock-style). Ring slots are never reclaimed, so
// a post-mortem dump still sees rings of threads that have exited.
//
// The fatal-signal path (`dump_signal_safe`) uses only async-signal-safe
// operations: no allocation, no locks, manual integer formatting, write(2).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace waveck::flight {

/// Record kind. The dump writer maps each kind back to the trace event name
/// and field set the offline analyzer already understands
/// (doc/OBSERVABILITY.md has the full correspondence table).
enum class Kind : std::uint8_t {
  kNone = 0,       // unwritten slot
  kCheckBegin,     // check_begin   name=output     a=delta
  kCheckEnd,       // check_end     name=output     a=duration_ns aux=conclusion
  kStageBegin,     // stage_begin   name=stage
  kStageEnd,       // stage_end     name=stage      aux=status
  kDecision,       // decision      name=net        a=parent b=depth aux=cls
  kDecisionClose,  // decision_close                aux=outcome
  kBacktrack,      // backtrack     name=net        b=depth aux=cls
  kConflict,       // conflict                      b=depth
  kSpurious,       // spurious_vector               b=depth
  kPropagate,      // propagate     a=applications  b=revisions aux=status
  kCache,          // cache                         aux=0 hit / 1 miss / 2 dom
  kGitdRound,      // gitd_round    a=narrowed
  kStem,           // stem          name=net        a=narrowed aux=outcome
  kServeRequest,   // serve_request name=op         a=queue depth after
  kServeResponse,  // serve_response name=op/error  a=bytes aux=ok
  kServeBatch,     // serve_batch   name=circuit    a=group size b=unique runs
  kMark,           // mark          name=label (watchdog_stall, debug_stall...)
  kMaxKind = kMark,
};

// Event codes carried in Record::aux and taken by the engine probes
// (prof/probe.hpp). Each family counts from 0 and indexes its *_str table,
// which renders both the trace and the dump without common/ depending on
// verify/. Conclusion and stage-status codes follow the declaration order of
// CheckConclusion and StageStatus (verifier.hpp asserts it).
inline constexpr std::uint8_t kConclusionN = 0;  // "N"
inline constexpr std::uint8_t kConclusionV = 1;  // "V"
inline constexpr std::uint8_t kConclusionA = 2;  // "A"
inline constexpr std::uint8_t kConclusionP = 3;  // "P"
inline constexpr std::uint8_t kStageNotRun = 0;     // "-"
inline constexpr std::uint8_t kStagePossible = 1;   // "P"
inline constexpr std::uint8_t kStageNoViolation = 2;  // "N"
// The case-analysis stage ends with its check's verdict. Records store
// these two as kStageNotRun, so dumps render them "-".
inline constexpr std::uint8_t kStageViolation = 3;  // "V"
inline constexpr std::uint8_t kStageAbandoned = 4;  // "A"
inline constexpr std::uint8_t kOutcomeExhausted = 0;
inline constexpr std::uint8_t kOutcomeWitness = 1;
inline constexpr std::uint8_t kOutcomeAbandoned = 2;
inline constexpr std::uint8_t kOutcomeTruncated = 3;  // synthetic (dump tail)
inline constexpr std::uint8_t kCacheHit = 0;
inline constexpr std::uint8_t kCacheMiss = 1;
inline constexpr std::uint8_t kCacheDomRebuild = 2;
inline constexpr std::uint8_t kPropagateNoViolation = 0;  // "N"
inline constexpr std::uint8_t kPropagatePossible = 1;     // "P"
// Stem outcomes reach the trace; dumps render only the stem's net.
inline constexpr std::uint8_t kStemRefuted = 0;
inline constexpr std::uint8_t kStemOneSided = 1;
inline constexpr std::uint8_t kStemBoth = 2;

/// Code -> string tables: the only ones in the tree ("?" for unknown codes).
[[nodiscard]] const char* conclusion_str(std::uint8_t code);
[[nodiscard]] const char* stage_status_str(std::uint8_t code);
[[nodiscard]] const char* outcome_str(std::uint8_t code);
[[nodiscard]] const char* cache_kind_str(std::uint8_t code);
[[nodiscard]] const char* propagate_status_str(std::uint8_t code);
[[nodiscard]] const char* stem_outcome_str(std::uint8_t code);

/// Bytes of name payload a record can carry (longer names are truncated;
/// the name is stored inline so a record stays valid after the string it
/// was copied from — a circuit unloaded by the serve daemon, say — is gone).
inline constexpr std::size_t kNameCap = 21;

/// One 64-byte flight record. Plain data so the ring write is a struct
/// copy; read back with strnlen-capped name access (no NUL at full width).
struct Record {
  std::uint64_t t_ns;   // CLOCK_MONOTONIC timestamp
  std::int64_t chk;     // enclosing check span id (-1 outside any check)
  std::int64_t dec;     // enclosing decision id (-1 at the search root)
  std::int64_t a;       // kind-specific (see Kind comments)
  std::int64_t b;       // kind-specific
  char name[kNameCap];  // kind-specific, truncated, not NUL-padded at cap
  std::uint8_t kind;    // Kind
  std::uint8_t aux;     // kind-specific small code
  std::uint8_t w;       // worker id of the recording thread (clamped to 255)
};
static_assert(sizeof(Record) == 64, "flight records must stay cache-line");

/// Single-writer ring of the last kCapacity records of one thread.
class Ring {
 public:
  static constexpr std::size_t kCapacity = 4096;  // power of two, 256 KiB

  void push(const Record& r) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & (kCapacity - 1)] = r;
    head_.store(h + 1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t head() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Record& slot(std::uint64_t i) const {
    return slots_[i & (kCapacity - 1)];
  }
  /// Test hook: forgets every record (readers see an empty ring). Racing a
  /// concurrent push is the caller's hazard.
  void reset_for_test() { head_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> head_{0};
  Record slots_[kCapacity] = {};
};

namespace detail {
extern std::atomic<bool> g_enabled;
Ring* claim_ring();  // registers the calling thread's ring (slow path)
extern thread_local Ring* t_ring;
}  // namespace detail

/// Whether recording is on. Defaults to true (always-on observability);
/// WAVECK_FLIGHT=0 in the environment or set_enabled(false) turns it off.
/// One relaxed load — the same cost discipline as trace_enabled().
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Appends one record to the calling thread's ring (claiming a ring slot on
/// first use; drops the record if the 64-slot thread table is full). Fields
/// `chk`/`dec` are captured from telemetry::span_context(), `w` from
/// telemetry::worker_id(). No-op when `enabled()` is false.
void record(Kind kind, std::string_view name = {}, std::int64_t a = 0,
            std::int64_t b = 0, std::uint8_t aux = 0);

/// Snapshot of how much the recorder has seen — for tests and the dump
/// header. `dropped` counts records discarded because the thread table was
/// full; `rings` the number of registered threads.
struct RecorderStats {
  int rings = 0;
  std::uint64_t records = 0;  // sum of ring heads (includes overwritten)
};
[[nodiscard]] RecorderStats stats();

/// Zeroes every ring (head reset; slots cleared lazily by overwrite being
/// ignored — a reset ring reports no records). Test hook; not signal-safe.
void reset_for_test();

/// Merged chronological dump of every ring as explain-compatible JSONL:
/// a leading `fr_dump` header event (reason, ring/record/drop counts), then
/// one trace-schema line per surviving record. Records belonging to checks
/// whose check_begin was already overwritten are dropped, and still-open
/// spans get synthetic closes appended (decision_close/stage_end/check_end
/// with outcome "truncated"), so `explain::analyze_trace` reports
/// well_formed() == true on every dump this writer produces.
void dump(std::ostream& os, std::string_view reason);

/// Async-signal-safe variant for the fatal-signal handler: streams a k-way
/// merge of the rings to `fd` with manual formatting and write(2). Does not
/// sanitize (a crashing process gets raw data; explain tolerates truncated
/// traces with warnings). Disables recording first so the dump is stable.
void dump_signal_safe(int fd, const char* reason);

// ---------------------------------------------------------------------------
// Blackbox: where automatic dumps land.
// ---------------------------------------------------------------------------

/// Sets (or, with "", clears) the directory automatic dumps are written to.
/// Dump files are named flight-<reason>-<pid>-<n>.jsonl.
void set_blackbox_dir(std::string dir);
[[nodiscard]] std::string blackbox_dir();
[[nodiscard]] bool blackbox_enabled();

/// Writes a dump into the blackbox directory, rate-limited per reason (a
/// serve daemon shedding load must not grind writing dumps): at most one
/// dump per reason per `cooldown_ns` (default 5 s; pass 0 to force).
/// Returns the path written, or "" when disabled, rate-limited, or the
/// file could not be opened.
std::string dump_blackbox(const char* reason,
                          std::uint64_t cooldown_ns = 5'000'000'000ULL);

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that write a
/// signal-safe dump to <blackbox_dir>/flight-fatal-<pid>.jsonl and re-raise
/// the default disposition. Requires set_blackbox_dir() first (the full
/// path is precomputed here; the handler itself formats nothing).
void install_fatal_handlers();

}  // namespace waveck::flight
