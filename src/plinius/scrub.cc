#include "plinius/scrub.h"

#include "common/error.h"
#include "obs/trace.h"

namespace plinius {

ScrubReport scrub_arena(romulus::Romulus& rom, MirrorModel* mirror,
                        ml::Network* net, PmDataStore* data,
                        const ScrubOptions& options) {
  expects(!rom.in_transaction(), "scrub_arena: cannot scrub mid-transaction");
  obs::Span span(rom.device().clock(), obs::Category::kScrub, "scrub.arena");
  ScrubReport report;
  report.poisoned_lines = rom.device().poisoned_line_count();

  // The region header has no twin: a corrupt header is unrecoverable at this
  // tier, and nothing below it can be trusted enough to walk.
  try {
    rom.validate_header();
  } catch (const PmError&) {
    report.header_ok = false;
    return report;
  }

  // Twin restore is a one-shot global repair: between transactions main and
  // back are byte-identical, so restoring main from back undoes any main-side
  // media fault. One shot only — if back is the corrupt twin, restoring again
  // would just re-copy the damage.
  const auto try_twin_restore = [&]() -> bool {
    if (report.twin_restored) return false;
    rom.restore_main_from_back();
    report.twin_restored = true;
    return true;
  };

  try {
    rom.validate_allocator();
  } catch (const PmError&) {
    bool ok = false;
    if (try_twin_restore()) {
      try {
        rom.validate_allocator();
        ok = true;
      } catch (const PmError&) {
      }
    }
    if (!ok) {
      report.allocator_ok = false;
      return report;  // the heap cannot be walked; nothing below is safe
    }
  }

  if (mirror != nullptr && net != nullptr) {
    const auto scrub_mirror = [&]() -> bool {
      // exists() and the list walk read untrusted PM offsets: corruption
      // surfaces as PmError/MlError, which is a layout failure, not a
      // scrubber failure.
      report.mirror = MirrorScrubReport{};
      if (!mirror->exists()) return true;
      report.mirror_present = true;
      report.mirror = mirror->scrub(*net);
      return true;
    };
    try {
      (void)scrub_mirror();
      // Sealed buffers with no healthy sibling can still come back from the
      // back twin (between transactions main == back, so the twin is a full
      // spare for every committed seal).
      if (report.mirror.unrecoverable > 0 && try_twin_restore()) {
        rom.validate_allocator();
        (void)scrub_mirror();
      }
    } catch (const Error&) {
      bool ok = false;
      if (try_twin_restore()) {
        try {
          rom.validate_allocator();
          ok = scrub_mirror();
        } catch (const Error&) {
        }
      }
      if (!ok) report.mirror_layout_ok = false;
    }
  }

  if (data != nullptr && options.scan_dataset) {
    try {
      if (data->exists()) report.corrupt_records = data->scrub_records();
    } catch (const Error&) {
      // Corrupt dataset header or record extent: the records cannot even be
      // addressed. No replica exists — the dataset must be reloaded.
      report.dataset_layout_ok = false;
    }
  }

  // Everything main-side validates: re-arm twin-based repair by rewriting a
  // diverged back twin from the known-good main (heals back-side faults).
  if (report.healthy() && rom.twin_divergence() > 0) {
    rom.rewrite_back_from_main();
    report.twins_resynced = true;
  }
  return report;
}

}  // namespace plinius
