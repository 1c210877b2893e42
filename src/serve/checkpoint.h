// Durable per-household checkpoints for rlblh_serve.
//
// One binary file per household, h<id>.ckpt, under a directory the daemon
// owns; each holds the session's v2 image (serve/session.h, layout in
// DESIGN.md §15), which ends in a CRC32 of its other bytes. A save writes
// the whole image to h<id>.ckpt.tmp, fsyncs it, renames it over the live
// file and fsyncs the directory, all before it returns — and the shard
// acks a day close only after that — so an acked day survives both a
// crash and a power cut, and a reader never observes a torn file. Restart
// therefore resumes from the newest complete day-boundary snapshot, which
// is exactly the guarantee the bitwise-resume argument needs.
//
// A file that fails the length, CRC, magic, version or field checks is
// moved aside to h<id>.ckpt.corrupt and reported as a DataError; the
// household then starts afresh on its next Hello.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/session.h"

namespace rlblh::serve {

class CheckpointStore {
 public:
  /// Opens (creating if needed) the checkpoint directory and sweeps
  /// orphaned *.tmp files. Throws DataError when the directory cannot be
  /// created or opened.
  explicit CheckpointStore(std::string dir);
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  const std::string& dir() const { return dir_; }

  /// Path of household `id`'s checkpoint file.
  std::string path_for(std::uint64_t id) const;

  /// True when a checkpoint for `id` exists.
  bool exists(std::uint64_t id) const;

  /// Durably persists the session: write tmp, fsync, rename, fsync the
  /// directory. Throws ConfigError while the session's day is open, and
  /// DataError naming the path and errno when a system call fails (one
  /// that fails before the rename leaves the previous checkpoint live).
  void save(const HouseholdSession& session) const;

  /// Loads household `id`'s checkpoint. Throws DataError when it is missing
  /// or unreadable, and when it is corrupt — after moving it to
  /// h<id>.ckpt.corrupt and counting it.
  std::unique_ptr<HouseholdSession> load(std::uint64_t id) const;

  /// Ids of every checkpoint file present (for drain logging and tests).
  std::vector<std::uint64_t> list() const;

  /// Corrupt files this store has moved aside.
  std::size_t corrupt_count() const { return corrupt_.load(); }

 private:
  std::string dir_;
  int dir_fd_ = -1;  ///< open on dir_ for openat/renameat and fsync
  mutable std::atomic<std::size_t> corrupt_{0};
};

}  // namespace rlblh::serve
