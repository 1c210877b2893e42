#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh::serve {

namespace fs = std::filesystem;

namespace {

std::string file_name(std::uint64_t id) {
  // Built with +=: GCC 12 reports a false -Wrestrict on the inlined
  // operator+ chain.
  std::string name = "h";
  name += std::to_string(id);
  name += ".ckpt";
  return name;
}

/// DataError for a failed system call on `path`, with errno's text.
[[noreturn]] void fail(const char* call, const std::string& path) {
  const int err = errno;
  throw DataError("checkpoint store: " + std::string(call) + " '" + path +
                  "' failed: " + std::strerror(err) + " (errno " +
                  std::to_string(err) + ")");
}

/// Closes `fd` when a save or load leaves early.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw DataError("checkpoint store: cannot create directory '" + dir_ +
                    "': " + ec.message());
  }
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) fail("open", dir_);
  // Hygiene: a crash between writing `<file>.tmp` and the rename leaves
  // the tmp file orphaned forever (the next save writes a fresh one). Sweep
  // them on open — the committed `.ckpt` files are the durable state and
  // are never touched.
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
  }
}

CheckpointStore::~CheckpointStore() {
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

std::string CheckpointStore::path_for(std::uint64_t id) const {
  return dir_ + "/" + file_name(id);
}

bool CheckpointStore::exists(std::uint64_t id) const {
  std::error_code ec;
  return fs::exists(path_for(id), ec);
}

void CheckpointStore::save(const HouseholdSession& session) const {
  RLBLH_OBS_NOW(encode_start);
  const std::string image = session.save();
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.encode_ns", encode_start);
  RLBLH_OBS_COUNT("serve.checkpoint.bytes", image.size());

  const std::string name = file_name(session.id());
  const std::string tmp = name + ".tmp";
  const std::string tmp_path = dir_ + "/" + tmp;
  RLBLH_OBS_NOW(write_start);
  FdGuard file{::openat(dir_fd_, tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
  if (file.fd < 0) fail("open", tmp_path);
  for (std::size_t done = 0; done < image.size();) {
    const ssize_t n =
        ::write(file.fd, image.data() + done, image.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write", tmp_path);
    }
    done += static_cast<std::size_t>(n);
  }
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.write_ns", write_start);
  RLBLH_OBS_NOW(fsync_start);
  if (::fsync(file.fd) != 0) fail("fsync", tmp_path);
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.fsync_ns", fsync_start);
  RLBLH_OBS_NOW(rename_start);
  const int fd = file.fd;
  file.fd = -1;
  if (::close(fd) != 0) fail("close", tmp_path);
  if (::renameat(dir_fd_, tmp.c_str(), dir_fd_, name.c_str()) != 0) {
    fail("rename", tmp_path);
  }
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.write_ns", rename_start);
  RLBLH_OBS_NOW(dir_sync_start);
  if (::fsync(dir_fd_) != 0) fail("fsync", dir_);
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.fsync_ns", dir_sync_start);
}

std::unique_ptr<HouseholdSession> CheckpointStore::load(
    std::uint64_t id) const {
  RLBLH_OBS_NOW(load_start);
  const std::string name = file_name(id);
  const std::string path = path_for(id);
  std::string image;
  {
    FdGuard file{::openat(dir_fd_, name.c_str(), O_RDONLY | O_CLOEXEC)};
    if (file.fd < 0) fail("open", path);
    struct stat st;
    if (::fstat(file.fd, &st) != 0) fail("stat", path);
    image.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < image.size()) {
      const ssize_t n =
          ::read(file.fd, image.data() + done, image.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("read", path);
      }
      if (n == 0) break;  // shrank under us: the CRC check rejects it
      done += static_cast<std::size_t>(n);
    }
    image.resize(done);
  }
  std::unique_ptr<HouseholdSession> session;
  try {
    session = HouseholdSession::restore(image);
    if (session->id() != id) {
      throw DataError("serve checkpoint: holds household " +
                      std::to_string(session->id()));
    }
  } catch (const DataError& e) {
    // The corrupt path: move the file aside so the next Hello starts the
    // household afresh, and keep it for inspection.
    const std::string aside = name + ".corrupt";
    const bool moved =
        ::renameat(dir_fd_, name.c_str(), dir_fd_, aside.c_str()) == 0;
    corrupt_.fetch_add(1);
    RLBLH_OBS_COUNT("serve.checkpoints_corrupt", 1);
    throw DataError("checkpoint store: '" + path + "' is corrupt" +
                    (moved ? " (moved to " + aside + ")" : "") + ": " +
                    e.what());
  }
  RLBLH_OBS_COUNT_NS_SINCE("serve.checkpoint.load_ns", load_start);
  return session;
}

std::vector<std::uint64_t> CheckpointStore::list() const {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 6 && name.front() == 'h' &&
        name.substr(name.size() - 5) == ".ckpt") {
      try {
        ids.push_back(std::stoull(name.substr(1, name.size() - 6)));
      } catch (...) {
        // Foreign file in the checkpoint directory; ignore.
      }
    }
  }
  return ids;
}

}  // namespace rlblh::serve
