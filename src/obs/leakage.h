// Side-channel leakage observatory.
//
// SGX's confidentiality guarantee does not cover *access patterns*: a
// privileged attacker who controls page tables sees every 4 KiB page an
// enclave touches (controlled-channel / page-fault attacks), and branch
// predictors leak secret-dependent branch directions. "Activation Functions
// Considered Harmful" recovers CNN weights from exactly the page traces our
// kind of enclave ML workload produces. This module records that
// attacker-visible channel so we can *measure* it:
//
//   * PageTraceRecorder — an append-only, run-length-coalesced log of the
//     attacker's view: 4 KiB-granularity page-access ranges, secret-dependent
//     branch outcomes, and structural marks (request/batch boundaries).
//     Hooks (`touch_pages`, `leak_mark`, page_trace_recorder()->branch) are
//     sprinkled through the EnclaveRuntime charge sites, the ml layer forward passes
//     and the serve path; they are a single relaxed atomic load when no
//     recorder is installed, and never touch model numerics either way
//     (tests/leak_test.cpp asserts bitwise-identical results).
//   * analyze_traces — the leakage analyzer: given one trace per secret
//     (N inputs, N weight perturbations, N shuffle seeds), it computes
//     trace distinguishability — distinct-trace count, pairwise normalized
//     edit distance, per-position symbol entropy (a mutual-information
//     proxy) — and emits a LeakageReport that exports through the Registry
//     (`leak.*` gauges) and as JSON.
//
// The observatory is the acceptance oracle for the data-oblivious kernel
// variants in ml/oblivious.h: baseline kernels produce input-distinguishable
// traces (score above threshold); oblivious kernels must produce bitwise
// input-independent traces (distinct == 1, score == 0, entropy == 0).
//
// Threat-model granularity: the recorder logs page-sized ranges relative to
// each logical region (weights, input, PM data records) rather than virtual
// addresses — the channel an attacker actually resolves — and branch events
// per instrumented site. Events from the orchestrating thread only, so the
// trace is a pure function of the workload at any PLINIUS_THREADS setting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace plinius::obs {

enum class LeakKind : std::uint8_t {
  kPage = 0,  // page-access run: value = first 4 KiB page, count = pages
  kBranch,    // branch-direction run: value = taken (0/1), count = run length
  kMark,      // structural marker (request/batch/iteration boundary)
};

[[nodiscard]] const char* to_string(LeakKind k) noexcept;

/// One run-length-coalesced event in the attacker-visible channel. `site`
/// must be a string literal (stored by pointer; compared by content).
struct LeakEvent {
  LeakKind kind = LeakKind::kMark;
  const char* site = "";
  std::uint32_t value = 0;
  std::uint32_t count = 1;
};

/// Content equality (site compared by strcmp, not pointer).
[[nodiscard]] bool operator==(const LeakEvent& a, const LeakEvent& b);

using LeakTrace = std::vector<LeakEvent>;

/// Records the attacker's view. Thread-safe (one mutex); coalesces
/// consecutive same-direction branch runs and contiguous page runs. Bounded:
/// past `capacity` events the *newest* are dropped (a truncated prefix stays
/// a valid trace for analysis; dropped() makes truncation visible).
class PageTraceRecorder {
 public:
  explicit PageTraceRecorder(std::size_t capacity = 1u << 22);

  PageTraceRecorder(const PageTraceRecorder&) = delete;
  PageTraceRecorder& operator=(const PageTraceRecorder&) = delete;

  /// Records access to `pages` consecutive 4 KiB pages starting at
  /// `first_page` within region `site`. Extends the previous event when it
  /// is the immediately preceding run of the same region.
  void page_range(const char* site, std::uint64_t first_page, std::uint64_t pages);
  /// Records one secret-dependent branch outcome at `site`.
  void branch(const char* site, bool taken);
  /// Records a structural marker (never coalesced).
  void mark(const char* site);

  [[nodiscard]] LeakTrace events() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events discarded because the trace hit capacity.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Raw (pre-coalescing) page / branch event counts.
  [[nodiscard]] std::uint64_t raw_page_events() const;
  [[nodiscard]] std::uint64_t raw_branch_events() const;
  void clear();

 private:
  void append(LeakEvent ev);

  std::size_t capacity_;
  mutable std::mutex mu_;
  LeakTrace events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t raw_pages_ = 0;
  std::uint64_t raw_branches_ = 0;
};

namespace detail {
extern std::atomic<PageTraceRecorder*> g_leak_recorder;
}  // namespace detail

/// Installs (or detaches, with nullptr) the process-wide recorder the hooks
/// report to. The ml kernels have no clock to hang a recorder off, so unlike
/// the span tracer this attachment is global; install only around a
/// single-workload recording window.
inline void set_page_trace_recorder(PageTraceRecorder* rec) noexcept {
  detail::g_leak_recorder.store(rec, std::memory_order_release);
}
[[nodiscard]] inline PageTraceRecorder* page_trace_recorder() noexcept {
  return detail::g_leak_recorder.load(std::memory_order_acquire);
}

/// Hook: the code at `site` touched bytes [offset, offset+len) of its
/// region; recorded as the covered 4 KiB page range. No-op when no recorder
/// is installed or len == 0.
inline void touch_pages(const char* site, std::size_t offset, std::size_t len) {
  PageTraceRecorder* rec = page_trace_recorder();
  if (rec == nullptr || len == 0) return;
  const std::uint64_t first = offset / 4096;
  const std::uint64_t last = (offset + len - 1) / 4096;
  rec->page_range(site, first, last - first + 1);
}

/// Hook: structural marker (request boundary, batch dispatch, ...).
inline void leak_mark(const char* site) {
  PageTraceRecorder* rec = page_trace_recorder();
  if (rec != nullptr) rec->mark(site);
}

/// RAII recording window: installs a fresh recorder on construction and
/// restores the previous attachment on destruction.
class ScopedLeakRecorder {
 public:
  explicit ScopedLeakRecorder(std::size_t capacity = 1u << 22)
      : recorder_(capacity), previous_(page_trace_recorder()) {
    set_page_trace_recorder(&recorder_);
  }
  ~ScopedLeakRecorder() { set_page_trace_recorder(previous_); }
  ScopedLeakRecorder(const ScopedLeakRecorder&) = delete;
  ScopedLeakRecorder& operator=(const ScopedLeakRecorder&) = delete;

  [[nodiscard]] PageTraceRecorder& recorder() noexcept { return recorder_; }

 private:
  PageTraceRecorder recorder_;
  PageTraceRecorder* previous_;
};

/// Runs `fn` under a fresh recorder and returns the recorded trace.
[[nodiscard]] LeakTrace record_leak_trace(const std::function<void()>& fn,
                                          std::size_t capacity = 1u << 22);

// --------------------------------------------------------------- analyzer --

/// Distinguishability of a set of traces, one per secret. score == 0 means
/// the channel carries no information about the secret (all traces bitwise
/// identical); score == 1 means every pair of secrets is distinguishable.
struct LeakageReport {
  std::size_t traces = 0;
  std::size_t distinct = 0;               // distinct trace fingerprints
  std::size_t pairs = 0;                  // N*(N-1)/2
  std::size_t distinguishable_pairs = 0;  // pairs with differing traces
  std::size_t min_events = 0;
  std::size_t max_events = 0;
  std::uint64_t page_events = 0;    // coalesced totals across all traces
  std::uint64_t branch_events = 0;
  double mean_edit_distance = 0;  // normalized Levenshtein, [0, 1]
  double max_edit_distance = 0;
  double mean_position_entropy_bits = 0;  // per-position MI proxy, [0, log2 N]
  double score = 0;                       // distinguishable_pairs / pairs

  [[nodiscard]] std::string to_json() const;
  /// Publishes the report as `leak.*` gauges under `labels`.
  void publish(Registry& reg, const Labels& labels) const;
};

[[nodiscard]] bool traces_equal(const LeakTrace& a, const LeakTrace& b);
/// FNV-1a over the event stream (kind, site content, value, count).
[[nodiscard]] std::uint64_t trace_fingerprint(const LeakTrace& trace);

/// Pairwise normalized edit distance between two traces. Traces longer than
/// `max_symbols` are uniformly subsampled first (the distance stays a valid
/// distinguishability signal; exactness is only guaranteed below the cap).
[[nodiscard]] double trace_edit_distance(const LeakTrace& a, const LeakTrace& b,
                                         std::size_t max_symbols = 2048);

/// Full analysis over one trace per secret.
[[nodiscard]] LeakageReport analyze_traces(std::span<const LeakTrace> traces,
                                           std::size_t max_edit_symbols = 2048);

}  // namespace plinius::obs
