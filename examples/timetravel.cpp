// Time travel and durable restart: two capabilities the MVCC engine gives
// beyond the paper's core protocol (its related work builds exactly these on
// SI engines — transaction-time support and "searching in time").
//
//   - read any historical snapshot through version chains;
//   - prune old versions under a retention horizon;
//   - checkpoint + log-replay restart of a site from its data directory
//     (engine/checkpointer.h).
//
//   $ ./build/examples/timetravel

#include <cstdio>
#include <filesystem>

#include "engine/checkpointer.h"
#include "engine/database.h"

using namespace lazysi;

int main() {
  // A durable site: every commit is logged under `dir` before it is acked.
  const std::string dir = "/tmp/lazysi_demo_data";
  std::filesystem::remove_all(dir);
  engine::Database db;
  auto opened = engine::OpenDataDir(&db, dir, wal::DurableLog::Options());
  if (!opened.ok()) return 1;

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

  // Durable restart: checkpoint now, keep editing (the edits live only in
  // the log), then "crash" and rebuild a database from the data directory.
  engine::Checkpointer::Options copts;
  copts.data_dir = dir;
  engine::Checkpointer checkpointer(&db, opened->durable.get(), copts);
  if (!checkpointer.CheckpointNow().ok()) return 1;
  (void)db.Put("doc/readme", "published, rev 2");
  (void)db.Put("doc/changelog", "added rev 2");
  opened->durable->Close();

  engine::Database restored;
  auto state = engine::OpenDataDir(&restored, dir, wal::DurableLog::Options());
  if (!state.ok()) return 1;
  state->durable->Close();

  std::printf("\nrestart: checkpoint at lsn %llu + %zu replayed txns\n",
              static_cast<unsigned long long>(
                  checkpointer.last_checkpoint_lsn()),
              state->report.commits_applied);
  const bool identical =
      restored.store()->Materialize(restored.LatestCommitTs()) ==
      db.store()->Materialize(db.LatestCommitTs());
  std::printf("restored state identical to original: %s\n",
              identical ? "yes" : "NO (BUG!)");
  std::printf("  doc/readme = \"%s\"\n",
              restored.Get("doc/readme").ValueOr("?").ToString().c_str());
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
