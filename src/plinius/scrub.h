// Arena scrubber: the tier between "a read looked wrong" and "reformat
// everything". Walks the persistent arena — Romulus header, allocator
// metadata, the mirror's sealed buffers, optionally the PM dataset —
// verifying every invariant that media faults can break, and repairs what
// the redundancy on hand allows:
//
//   * allocator metadata that fails validation is restored from the back
//     twin (main==back holds between transactions, so an idle region's twin
//     is a full-fidelity spare);
//   * a sealed mirror buffer whose GCM tag fails is rebuilt from its A/B
//     sibling (MirrorModel::scrub) when the mirror is replicated;
//   * after a successful pass, a diverged back twin is rewritten from the
//     now-validated main, re-arming twin-based repair for the next fault.
//
// What the scrubber cannot fix it reports: the trainer's recovery ladder
// (trainer.h) uses the report to pick the next rung (SSD checkpoint, fresh
// start, peer re-provision). Scrub read traffic is charged to the device's
// cost model (PmStats::scrub_bytes).
#pragma once

#include <cstddef>
#include <vector>

#include "plinius/mirror.h"
#include "plinius/pm_data.h"
#include "romulus/romulus.h"

namespace plinius {

struct ScrubReport {
  bool header_ok = true;        // Romulus region header validates
  bool allocator_ok = true;     // allocator metadata validates (after repair)
  bool mirror_layout_ok = true; // mirror linked list walkable (after repair)
  bool twin_restored = false;   // main was restored from the back twin
  bool twins_resynced = false;  // back was rewritten from validated main
  MirrorScrubReport mirror;     // per-buffer authentication results
  bool mirror_present = false;
  bool dataset_layout_ok = true;  // dataset header/extent walkable
  std::vector<std::size_t> corrupt_records;  // PM dataset indices failing MAC
  std::size_t poisoned_lines = 0;            // lines still poisoned at entry

  /// Everything validated (possibly after repair) and no sealed state is
  /// unrecoverable at this tier. Corrupt data records do NOT make the arena
  /// unhealthy: they are skippable under CorruptRecordPolicy::kResample.
  [[nodiscard]] bool healthy() const noexcept {
    return header_ok && allocator_ok && mirror_layout_ok &&
           mirror.unrecoverable == 0;
  }
};

struct ScrubOptions {
  bool scan_dataset = false; // authenticate every PM data record (expensive)
};

/// One scrub pass over `rom`'s arena. `mirror`/`net` may be null (skips the
/// mirror walk); `data` may be null (skips the dataset scan). Never throws
/// for corruption it is designed to detect — findings land in the report;
/// only programming errors (e.g. scrubbing mid-transaction) throw.
ScrubReport scrub_arena(romulus::Romulus& rom, MirrorModel* mirror,
                        ml::Network* net, PmDataStore* data,
                        const ScrubOptions& options = {});

}  // namespace plinius
