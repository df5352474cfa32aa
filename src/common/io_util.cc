#include "common/io_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hbold::io {

namespace fs = std::filesystem;

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Status FsyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    // Some filesystems refuse O_RDONLY on directories; a missing dir is a
    // real error, anything else degrades to best-effort.
    if (errno == ENOENT) return ErrnoStatus("cannot open directory", dir);
    return Status::OK();
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync failed for directory", dir);
  return Status::OK();
}

Status WriteFileDurable(const std::string& path,
                        const std::vector<std::string_view>& pieces) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot open", tmp);
  for (const std::string_view piece : pieces) {
    const char* p = piece.data();
    size_t left = piece.size();
    while (left > 0) {
      ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        Status st = ErrnoStatus("write failed for", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return st;
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
  }
  // The content must be on stable storage *before* the rename publishes it:
  // rename-then-crash may otherwise expose a zero-length or partial file
  // under the final name.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return ErrnoStatus("fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return ErrnoStatus("close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = ErrnoStatus("cannot rename", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  // And the rename itself must be durable: fsync the parent directory.
  fs::path parent = fs::path(path).parent_path();
  return FsyncDirectory(parent.empty() ? "." : parent.string());
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed for '" + path + "'");
  }
  return buffer.str();
}

}  // namespace hbold::io
