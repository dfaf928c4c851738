// Time travel and durable restart: two capabilities the MVCC engine gives
// beyond the paper's core protocol (its related work builds exactly these on
// SI engines — transaction-time support and "searching in time").
//
//   - read any historical snapshot through version chains;
//   - prune old versions under a retention horizon;
//   - checkpoint + log-replay restart of a site (engine/recovery.h).
//
//   $ ./build/examples/timetravel

#include <cstdio>

#include "engine/database.h"
#include "engine/recovery.h"
#include "wal/log_file.h"

using namespace lazysi;

int main() {
  engine::Database db;

  // Build some history: a document edited over time.
  std::vector<Timestamp> edits;
  const char* versions[] = {"draft", "draft v2", "reviewed", "published"};
  for (const char* text : versions) {
    if (!db.Put("doc/readme", text).ok()) return 1;
    edits.push_back(db.LatestCommitTs());
  }
  (void)db.Put("doc/other", "unrelated");

  std::printf("document history (%zu versions):\n", edits.size());
  for (std::size_t i = 0; i < edits.size(); ++i) {
    auto txn = db.BeginAtSnapshot(edits[i]);
    if (!txn.ok()) return 1;
    std::printf("  as of ts %llu: \"%s\"\n",
                static_cast<unsigned long long>(edits[i]),
                (*txn)->Get("doc/readme").ValueOr("?").ToString().c_str());
  }

  // Retention: prune everything older than the "reviewed" edit.
  const std::size_t dropped = db.store()->PruneVersions(edits[2]);
  std::printf("\npruned %zu shadowed versions below ts %llu\n", dropped,
              static_cast<unsigned long long>(edits[2]));
  auto old_read = db.BeginAtSnapshot(edits[0]);
  std::printf("  read at ts %llu now: %s\n",
              static_cast<unsigned long long>(edits[0]),
              (*old_read)->Get("doc/readme").status().ToString().c_str());
  auto kept_read = db.BeginAtSnapshot(edits[2]);
  std::printf("  read at ts %llu still: \"%s\"\n",
              static_cast<unsigned long long>(edits[2]),
              (*kept_read)->Get("doc/readme").ValueOr("?").ToString().c_str());

  // Durable restart: checkpoint now, keep editing, persist the log suffix,
  // then rebuild an identical database from the two files.
  const std::string dir = "/tmp/";
  const auto checkpoint = db.TakeCheckpoint();
  if (!engine::SaveCheckpoint(checkpoint, dir + "lazysi_demo.ckpt").ok()) {
    return 1;
  }
  (void)db.Put("doc/readme", "published, rev 2");
  (void)db.Put("doc/changelog", "added rev 2");
  if (!wal::LogFile::Write(*db.log(), dir + "lazysi_demo.log",
                           checkpoint.lsn).ok()) {
    return 1;
  }

  engine::Database restored;
  auto loaded = engine::LoadCheckpoint(dir + "lazysi_demo.ckpt");
  if (!loaded.ok() || !restored.InstallCheckpoint(*loaded).ok()) return 1;
  auto records = wal::LogFile::Read(dir + "lazysi_demo.log");
  if (!records.ok()) return 1;
  auto applied = engine::ReplayLog(&restored, *records);
  if (!applied.ok()) return 1;

  std::printf("\nrestart: checkpoint (%zu keys) + %zu replayed txns\n",
              loaded->state.size(), *applied);
  const bool identical =
      restored.store()->Materialize(restored.LatestCommitTs()) ==
      db.store()->Materialize(db.LatestCommitTs());
  std::printf("restored state identical to original: %s\n",
              identical ? "yes" : "NO (BUG!)");
  std::printf("  doc/readme = \"%s\"\n",
              restored.Get("doc/readme").ValueOr("?").ToString().c_str());
  std::remove((dir + "lazysi_demo.ckpt").c_str());
  std::remove((dir + "lazysi_demo.log").c_str());
  return identical ? 0 : 1;
}
