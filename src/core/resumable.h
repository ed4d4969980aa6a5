#pragma once

#include <filesystem>
#include <functional>
#include <string>

#include "common/check.h"
#include "common/serialize.h"

namespace imap::core {

/// Snapshot/halt policy for one resumable training run.
struct ResumeCfg {
  std::string snap;          ///< snapshot file ("" disables persistence)
  int every = 0;             ///< units between periodic snapshots (0 = off)
  long long halt_after = 0;  ///< stop after N units this call (0 = off)
};

/// The one loop that reads and writes training snapshot files. It drives
/// `session` (anything with `bool done() const`, `void advance()`,
/// `save_state(ArchiveWriter&) const` and `load_state(const ArchiveReader&)`)
/// one unit at a time until done():
///  * it first resumes from `rc.snap` when that file exists; a snapshot
///    written for a different session throws CheckError;
///  * it writes a snapshot after every `rc.every`-th unit of this call, and
///    when halting, but never after the last unit;
///  * after `rc.halt_after` units of this call it stops early, leaving the
///    snapshot behind, and returns false;
///  * otherwise it calls `on_finish` and then removes the snapshot, so a
///    crash before the caller's result lands still resumes from it, and
///    returns true.
template <typename Session>
bool run_resumable(Session& session, const ResumeCfg& rc,
                   const std::function<void()>& on_finish = {}) {
  if (!rc.snap.empty()) {
    ArchiveReader a;
    if (ArchiveReader::load(rc.snap, a)) session.load_state(a);
  }
  long long units = 0;
  while (!session.done()) {
    session.advance();
    ++units;
    const bool more = !session.done();
    const bool halting = rc.halt_after > 0 && units >= rc.halt_after && more;
    const bool periodic = rc.every > 0 && units % rc.every == 0 && more;
    if (!rc.snap.empty() && (halting || periodic)) {
      std::filesystem::create_directories(
          std::filesystem::path(rc.snap).parent_path());
      ArchiveWriter w;
      session.save_state(w);
      IMAP_CHECK_MSG(w.save(rc.snap), "failed to write snapshot " << rc.snap);
    }
    if (halting) return false;
  }
  if (on_finish) on_finish();
  if (!rc.snap.empty()) std::filesystem::remove(rc.snap);
  return true;
}

}  // namespace imap::core
